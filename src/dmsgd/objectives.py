"""Objective suites over the agent stack, stochastic gradient oracles, and dataset partitions.

A suite bundles the local losses f_j, evaluated for all N agents at once on an
(n, d) stack of per-agent points, with the constants the bounds engine
consumes (max smoothness, min strong convexity, PL constant, closed-form
optimum where one exists).  Three families are provided: strongly convex
quadratics, a scalar smooth non-convex PL family, and regularized logistic
regression over a partitioned dataset.  A suite's one ``evaluate`` returns the
local values and gradients together, and the run loop, the stacked objective
and every optimum solver read that pair.  The logistic family stacks the
agents whose partitions have the same length into one (g, m, d) feature
array, so its evaluation and minibatch draws take one batched pass per
partition length, not one matvec per agent.  The penalized stacked objective
F(x) + (1/2a) x^T (I - Pi) x lives here too, since its derived curvature
constants are what the convergence bounds are stated in.  ``scipy.optimize``
is imported only inside the solvers that call it (logistic and PL optima), so
quadratic runs never load it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ObjectiveSuite",
    "StochasticOracle",
    "Dataset",
    "UnifiedObjective",
    "agent_total",
    "make_quadratic",
    "make_pl",
    "make_logistic",
    "make_synthetic_dataset",
    "partition_iid",
    "partition_noniid",
    "stochastic_grad",
    "unified_optimum",
    "estimate_pl_constant",
]

PL_SMOOTHNESS = 8.0  # sup |d2/dx2 (x^2 + 3 sin^2 x)| = sup |2 + 6 cos 2x|


def agent_total(per_agent):
    """Sum over the leading agent axis, adding agents in order j = 0..n-1.

    ``np.sum`` adds eight or more terms pairwise, which moves the last bit of
    F(x) = sum_j f_j(x_j); an in-order accumulate from 0.0 keeps it reproducible.
    """
    return 0.0 + np.add.accumulate(per_agent, axis=0)[-1]


def _summed(evaluate, x):
    """F(x) = sum_j f_j(x) and its gradient at one shared point x (d,), summed in agent order."""
    values, grads = evaluate(x)
    return agent_total(values), agent_total(grads)


@dataclass
class ObjectiveSuite:
    """N local losses over the agent stack, with declared curvature constants.

    ``evaluate(X)`` maps an (n, d) stack of per-agent points to the pair
    (values, grads): the n local losses f_j(x_j) and the (n, d) exact
    gradients.  It broadcasts X against (n, d): a single shared point (d,) is
    evaluated by every agent, and the quadratic and PL families also take
    leading axes, (..., n, d) -> (..., n) values and (..., n, d) gradients.
    ``mu_m`` is 0 when the suite is not strongly convex; ``x_star`` /
    ``f_star`` describe the minimizer of the summed objective
    F(x) = sum_j f_j(x) when known.
    Sample-based suites declare each agent's ``sample_counts`` and a batched
    minibatch gradient ``sample_grad`` (see :func:`make_logistic`).
    """

    n: int
    d: int
    kind: str
    evaluate: callable
    l_m: float
    mu_m: float = 0.0
    pl_constant: float | None = None
    x_star: np.ndarray | None = None
    f_star: float | None = None
    sample_counts: tuple | None = None
    sample_grad: callable | None = None
    params: dict = field(default_factory=dict)


def _per_agent(values, n, what):
    """One float per agent from a single (broadcast) value or from n values."""
    values = np.asarray(values, dtype=float).reshape(-1)
    if values.size not in (1, n):
        raise ValueError(f"{what} need 1 or {n} values, got {values.size}")
    return np.broadcast_to(values, (n,)).copy()


def make_quadratic(targets, curvatures):
    """Strongly convex suite f_j(x) = (a_j/2) ||x - t_j||^2.

    ``targets`` is (n, d); ``curvatures`` broadcasts to length n and must be
    positive.  The summed objective has the closed-form minimizer
    x* = sum a_j t_j / sum a_j.
    """
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    n, d = targets.shape
    a = _per_agent(curvatures, n, "curvatures")
    if (a <= 0).any():
        raise ValueError("curvatures must be positive")

    def evaluate(X):
        diff = X - targets
        return 0.5 * a * np.sum(diff**2, axis=-1), a[:, None] * diff

    suite = ObjectiveSuite(
        n=n,
        d=d,
        kind="quadratic",
        evaluate=evaluate,
        l_m=float(a.max()),
        mu_m=float(a.min()),
        x_star=(a[:, None] * targets).sum(axis=0) / a.sum(),
        params={"targets": targets, "curvatures": a},
    )
    suite.f_star = float(agent_total(evaluate(suite.x_star)[0]))
    return suite


def make_pl(n, shifts=0.0):
    """Scalar smooth non-convex PL suite f_j(x) = (x-s_j)^2 + 3 sin^2(x-s_j).

    Smooth with constant 8, not convex (second derivative dips to -4), yet
    satisfies the gradient-dominance inequality; the declared PL constant is
    estimated on a grid via :func:`estimate_pl_constant`.
    """
    s = _per_agent(shifts, n, "shifts")[:, None]

    def evaluate(X):
        z = X - s
        return np.sum(z**2 + 3.0 * np.sin(z) ** 2, axis=-1), 2.0 * z + 3.0 * np.sin(2.0 * z)

    suite = ObjectiveSuite(
        n=n,
        d=1,
        kind="pl",
        evaluate=evaluate,
        l_m=PL_SMOOTHNESS,
        mu_m=0.0,
        params={"shifts": s},
    )
    if np.ptp(s) == 0.0:
        suite.x_star, suite.f_star = s[0].copy(), 0.0
    else:
        from scipy.optimize import minimize

        # d=1: coarse scan plus local polish on the summed objective
        xs = np.linspace(s.min() - 3.0, s.max() + 3.0, 2001)
        x0 = xs[int(np.argmin(agent_total(evaluate(xs[:, None, None])[0].T)))]
        res = minimize(lambda v: _summed(evaluate, v), np.array([x0]), jac=True)
        suite.x_star, suite.f_star = np.array([res.x[0]]), float(res.fun)
    suite.pl_constant = estimate_pl_constant(suite, np.arange(-10.0, 10.0, 1e-3))
    return suite


@dataclass
class Dataset:
    """Feature matrix with integer class labels and optional agent partitions."""

    features: np.ndarray
    labels: np.ndarray
    partitions: list | None = None

    @property
    def n_samples(self):
        return self.features.shape[0]

    @property
    def d_feat(self):
        return self.features.shape[1]


def make_synthetic_dataset(seed, n_samples, d_feat, n_classes, separation=4.0):
    """Gaussian class-conditional dataset with well separated means.

    Labels are assigned round-robin so class counts are balanced within one;
    everything is a pure function of the seed.
    """
    if min(n_samples, d_feat, n_classes) < 1:
        raise ValueError("all dataset counts must be >= 1")
    rng = np.random.default_rng(seed)
    labels = np.arange(n_samples) % n_classes
    means = np.zeros((n_classes, d_feat))
    for c in range(n_classes):
        means[c, c % d_feat] = separation * (1 + c // d_feat)
    features = means[labels] + rng.normal(size=(n_samples, d_feat))
    return Dataset(features=features, labels=labels)


def partition_iid(dataset, n_agents, seed):
    """Shuffle all indices and split into near-equal contiguous blocks."""
    if n_agents > dataset.n_samples:
        raise ValueError(f"cannot split {dataset.n_samples} samples over {n_agents} agents")
    rng = np.random.default_rng(seed)
    idx = rng.permutation(dataset.n_samples)
    return [np.sort(part) for part in np.array_split(idx, n_agents)]


def partition_noniid(dataset, n_agents):
    """Sort by label and hand out contiguous chunks: maximal label skew."""
    if n_agents > dataset.n_samples:
        raise ValueError(f"cannot split {dataset.n_samples} samples over {n_agents} agents")
    order = np.argsort(dataset.labels, kind="stable")
    return [np.sort(part) for part in np.array_split(order, n_agents)]


def _logistic_grads(F, Y, W, margins, reg):
    """Mean logistic-loss gradients of g stacked agents: F (g, m, d), Y and margins F.w (g, m), W (g, d)."""
    with np.errstate(over="ignore"):  # exp overflows to inf where the sample's weight is 0
        coef = -Y / (1.0 + np.exp(Y * margins))
    return np.matmul(coef[:, None, :], F)[:, 0, :] / Y.shape[1] + reg * W


def make_logistic(dataset, reg=0.0):
    """Per-agent l2-regularized logistic losses over the dataset partitions.

    Labels are mapped one-vs-rest against class 0 (y = -1 for class 0, +1
    otherwise; the binary case reduces to the usual +-1 encoding).  Each
    agent's loss is the mean cross entropy over its partition plus
    (reg/2)||w||^2, so minibatch estimates stay unbiased.  Agents whose
    partitions have the same length share one stacked (g, m, d) feature
    array, so ``evaluate`` takes one batched pass per partition length and
    computes each group's margins once for its values and gradients;
    ``array_split`` partitions have at most two lengths.
    ``sample_grad(agents, idx, W)`` is the batched minibatch gradient: row i
    holds agent ``agents[i]``'s mean gradient at ``W[i]`` over its local
    sample indices ``idx[i]``.
    """
    if reg < 0:
        raise ValueError("regularization must be >= 0")
    if dataset.partitions is None:
        raise ValueError("dataset has no agent partitions; run a partition strategy first")
    if any(len(p) == 0 for p in dataset.partitions):
        raise ValueError("every agent partition must be non-empty")
    n = len(dataset.partitions)
    d = dataset.d_feat
    ys = np.where(dataset.labels == 0, -1.0, 1.0)
    lengths = np.array([len(p) for p in dataset.partitions])
    # local sample index -> dataset row, padded to the longest partition
    rows = np.zeros((n, lengths.max()), dtype=np.intp)
    groups = []
    for m in np.unique(lengths):
        agents = np.flatnonzero(lengths == m)
        rows[agents, :m] = [dataset.partitions[j] for j in agents]
        groups.append((agents, dataset.features[rows[agents, :m]], ys[rows[agents, :m]]))

    def evaluate(W):
        W = np.broadcast_to(W, (n, d))
        values, grads = np.empty(n), np.empty((n, d))
        for agents, F, Y in groups:
            Wg = W[agents]
            margins = np.matmul(F, Wg[:, :, None])[:, :, 0]
            values[agents] = np.mean(np.logaddexp(0.0, -Y * margins), axis=1) + 0.5 * reg * np.vecdot(Wg, Wg)
            grads[agents] = _logistic_grads(F, Y, Wg, margins, reg)
        return values, grads

    def sample_grad(agents, idx, W):
        picked = rows[np.asarray(agents)[:, None], idx]
        F = dataset.features[picked]
        return _logistic_grads(F, ys[picked], W, np.matmul(F, W[:, :, None])[:, :, 0], reg)

    row_norm_sq = float((dataset.features**2).sum(axis=1).max())
    return ObjectiveSuite(
        n=n,
        d=d,
        kind="logistic",
        evaluate=evaluate,
        l_m=reg + 0.25 * row_norm_sq,
        mu_m=reg,
        sample_counts=tuple(int(m) for m in lengths),
        sample_grad=sample_grad,
    )


@dataclass
class StochasticOracle:
    """Gradient noise model: exact + Gaussian, or uniform minibatch.

    Additive mode perturbs the exact gradient with covariance (sigma^2/d) I,
    so every draw has E||g - grad||^2 = sigma^2 exactly.  Minibatch mode
    averages the per-sample gradients of ``batch`` indices drawn uniformly
    without replacement.
    """

    mode: str = "additive"
    sigma: float = 0.0
    batch: int | None = None

    def __post_init__(self):
        if self.mode not in ("additive", "minibatch"):
            raise ValueError(f"unknown oracle mode {self.mode!r}")
        if self.mode == "additive" and self.sigma < 0:
            raise ValueError("sigma must be >= 0")
        if self.mode == "minibatch" and (self.batch is None or self.batch < 1):
            raise ValueError("minibatch oracle needs batch >= 1")

    def check_fits(self, suite):
        """A minibatch must fit in every agent's partition (a sampleless suite has one sample)."""
        counts = suite.sample_counts or (1,) * suite.n
        if self.mode == "minibatch" and self.batch > min(counts):
            j = int(np.argmin(counts))
            raise ValueError(f"batch {self.batch} exceeds agent {j}'s {counts[j]} samples")


def stochastic_grad(suite, oracle, x, exact, rngs):
    """One stochastic gradient draw per agent at the (n, d) points x.

    ``exact`` is the gradient half of ``suite.evaluate(x)``, which the caller
    already holds; agent j draws from its own generator ``rngs[j]``, in agent
    order.  A minibatch as large as an agent's partition is that agent's exact
    gradient and draws nothing; the batch gradients of every agent that draws
    come from one stacked ``suite.sample_grad`` call.
    """
    if oracle.mode == "additive":
        if oracle.sigma == 0.0:
            return exact
        scale = oracle.sigma / np.sqrt(suite.d)
        return exact + np.stack([rng.normal(0.0, scale, size=suite.d) for rng in rngs])
    if suite.sample_grad is None:
        return exact
    drawn = [j for j, n_j in enumerate(suite.sample_counts) if oracle.batch < n_j]
    if not drawn:
        return exact
    idx = np.stack([rngs[j].choice(suite.sample_counts[j], size=oracle.batch, replace=False) for j in drawn])
    draws = exact.copy()
    draws[drawn] = suite.sample_grad(drawn, idx, x[drawn])
    return draws


@dataclass
class UnifiedObjective:
    """Stacked objective F(x) + (1/2a) sum_c x_c^T (I - Pi) x_c.

    ``alpha=None`` drops the penalty entirely: the stacked objective is then
    plain F, which is the objective the second update variant is analyzed
    against.  ``mu_prime``/``l_prime`` are the penalized curvature constants
    mu_m + (1/2a)(1-lambda_N) and L_m + (1/a)(1-lambda_2).
    """

    suite: ObjectiveSuite
    mixing: object  # MixingMatrix
    alpha: float | None

    def __post_init__(self):
        if self.alpha is not None and self.alpha <= 0:
            raise ValueError("alpha must be positive")
        self._lap = np.eye(self.mixing.n) - self.mixing.entries
        if self.suite.n != self.mixing.n:
            raise ValueError(f"the suite has {self.suite.n} agents but the mixing matrix has {self.mixing.n}")

    def _check(self, states):
        states = np.asarray(states, dtype=float)
        if states.shape != (self.suite.n, self.suite.d):
            raise ValueError(f"expected states {(self.suite.n, self.suite.d)}, got {states.shape}")
        return states

    def _penalty(self, states):
        """(1/2a) x^T (I - Pi) x and its gradient (1/a)(I - Pi) x, from one product with I - Pi."""
        lap_x = self._lap @ states
        return float(np.sum(states * lap_x) / (2.0 * self.alpha)), lap_x / self.alpha

    def penalty(self, states):
        if self.alpha is None:
            return 0.0
        return self._penalty(self._check(states))[0]

    def value(self, states):
        return self.value_and_grad(states)[0]

    def grad(self, states):
        return self.value_and_grad(states)[1]

    def value_and_grad(self, states, local=None):
        """The value and stacked gradient at ``states``, from ``local`` = suite.evaluate(states) if given."""
        states = self._check(states)
        values, grads = self.suite.evaluate(states) if local is None else local
        pen, pen_grad = (0.0, None) if self.alpha is None else self._penalty(states)
        return float(agent_total(values) + pen), grads if pen_grad is None else grads + pen_grad

    def mu_prime(self, spectral):
        if self.alpha is None:
            return self.suite.mu_m
        return self.suite.mu_m + (1.0 - spectral.lambda_n) / (2.0 * self.alpha)

    def l_prime(self, spectral):
        if self.alpha is None:
            return self.suite.l_m
        return self.suite.l_m + (1.0 - spectral.lambda2) / self.alpha


def _lbfgs_multistart(fun, starts):
    """The lowest L-BFGS-B result over the flat starting points.

    ``fun`` returns the value and gradient together (``jac=True``), so each
    point the solver visits is evaluated once.  An optimum that is not
    finite is a numerical failure (FloatingPointError), never a cached
    minimum; nan trial points on the way there are the solver's to reject,
    so numpy's invalid-value warning stays off.
    """
    from scipy.optimize import minimize

    best = None
    with np.errstate(invalid="ignore"):
        for s0 in starts:
            res = minimize(fun, s0, jac=True, method="L-BFGS-B", options={"gtol": 1e-12, "ftol": 1e-15})
            if best is None or res.fun < best.fun:
                best = res
    if not (np.isfinite(best.fun) and np.isfinite(best.x).all()):
        raise FloatingPointError(f"L-BFGS-B found no finite optimum (minimum {best.fun})")
    return best


def unified_optimum(objective):
    """Minimizer and minimum of the stacked (penalized) objective.

    Quadratic suites solve the closed form per coordinate; other suites fall
    back to multistart quasi-Newton minimization over the stacked space,
    started from zero and from the common optimum ``suite.x_star`` (solved
    here first if the suite has none yet, so the result does not depend on
    what ran before).
    """
    suite = objective.suite
    n, d = suite.n, suite.d
    if suite.kind == "quadratic":
        a = suite.params["curvatures"]
        targets = suite.params["targets"]
        if objective.alpha is None:
            x = targets.copy()  # each agent minimizes its own loss
        else:
            h = np.diag(a) + objective._lap / objective.alpha
            x = np.linalg.solve(h, a[:, None] * targets)
        return x, objective.value(x)
    common_optimum(suite)
    starts = [np.zeros((n, d)), np.tile(suite.x_star, (n, 1))]
    if suite.kind == "pl":
        starts.append(suite.params["shifts"].copy())

    def fun(v):
        value, grad = objective.value_and_grad(v.reshape(n, d))
        return value, grad.ravel()

    best = _lbfgs_multistart(fun, [s0.ravel() for s0 in starts])
    return best.x.reshape(n, d), float(best.fun)


def common_optimum(suite):
    """Minimum of the summed objective F(x) = sum_j f_j(x) at a shared point.

    Uses the declared closed form when available, otherwise multistart
    quasi-Newton minimization (and caches the result on the suite).
    """
    if suite.f_star is not None:
        return suite.f_star
    starts = [np.zeros(suite.d)]
    if suite.x_star is not None:
        starts.append(np.asarray(suite.x_star, dtype=float))
    best = _lbfgs_multistart(lambda v: _summed(suite.evaluate, v), starts)
    suite.x_star = best.x.copy()
    suite.f_star = float(best.fun)
    return suite.f_star


def estimate_pl_constant(suite, grid):
    """Grid estimate of the gradient-dominance constant.

    Evaluates min over the grid of ||grad fbar||^2 / (2 (fbar - fbar*)) for
    the mean local objective fbar = (1/N) sum_j f_j (scalar suites only);
    points at the optimal value are excluded.  The mean keeps the estimate
    independent of the agent count, so for a quadratic suite it returns the
    mean curvature, which dominates mu_m.
    """
    if suite.d != 1:
        raise ValueError("PL estimation is defined for scalar suites")
    if suite.f_star is None:
        raise ValueError("suite must declare f_star")
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("empty grid")
    values, grads = suite.evaluate(grid.reshape(-1, 1, 1))  # every agent at each grid point
    fbar = agent_total(values.T) / suite.n
    gbar = agent_total(grads[..., 0].T) / suite.n
    gap = fbar - suite.f_star / suite.n
    away = gap > 1e-12
    if not away.any():
        raise ValueError("grid contains no points away from the optimum")
    return float(np.min(gbar[away] ** 2 / (2.0 * gap[away])))
