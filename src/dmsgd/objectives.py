"""Per-agent objective suites, stochastic gradient oracles, and data plumbing.

A suite bundles the local losses f_j with their exact gradients and the
constants the bounds engine consumes (max smoothness, min strong convexity,
declared gradient bound, PL constant, closed-form optimum where one exists).
Three families are provided: strongly convex quadratics, a scalar smooth
non-convex PL family, and regularized logistic regression over a partitioned
dataset.  The penalized stacked objective F(x) + (1/2a) x^T (I - Pi) x lives
here too, since its derived curvature constants are what the convergence
bounds are stated in.  ``scipy.optimize`` is imported only inside the
solvers that call it (logistic and PL optima), so quadratic runs never load it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ObjectiveSuite",
    "StochasticOracle",
    "Dataset",
    "UnifiedObjective",
    "make_quadratic",
    "make_pl",
    "make_logistic",
    "make_synthetic_dataset",
    "partition_iid",
    "partition_noniid",
    "stochastic_grad",
    "unified_optimum",
    "estimate_pl_constant",
    "save_dataset_csv",
    "load_dataset_csv",
]

PL_SMOOTHNESS = 8.0  # sup |d2/dx2 (x^2 + 3 sin^2 x)| = sup |2 + 6 cos 2x|


@dataclass
class ObjectiveSuite:
    """N local losses with exact gradients and declared curvature constants.

    ``value(j, x)`` / ``grad(j, x)`` evaluate agent j's loss at a point of
    dimension d.  ``mu_m`` is 0 when the suite is not strongly convex;
    ``gamma_m`` / ``grad_bound`` are None when no finite Lipschitz/gradient
    bound is declared; ``x_star`` / ``f_star`` describe the minimizer of the
    summed objective F(x) = sum_j f_j(x) when known.
    """

    n: int
    d: int
    kind: str
    value_fn: callable
    grad_fn: callable
    l_m: float
    mu_m: float = 0.0
    gamma_m: float | None = None
    grad_bound: float | None = None
    pl_constant: float | None = None
    x_star: np.ndarray | None = None
    f_star: float | None = None
    sample_counts: tuple | None = None
    sample_grad_fn: callable | None = None
    params: dict = field(default_factory=dict)

    def value(self, j, x):
        return float(self.value_fn(j, np.asarray(x, dtype=float)))

    def grad(self, j, x):
        return np.asarray(self.grad_fn(j, np.asarray(x, dtype=float)), dtype=float)

    def common_value(self, x):
        """F(x) = sum_j f_j(x) at a single shared point."""
        return sum(self.value(j, x) for j in range(self.n))

    def common_grad(self, x):
        return sum(self.grad(j, x) for j in range(self.n))

    def stacked_value(self, states):
        """F(x) = sum_j f_j(x_j) over an N x d stack of per-agent states."""
        return sum(self.value(j, states[j]) for j in range(self.n))

    def stacked_grad(self, states):
        return np.stack([self.grad(j, states[j]) for j in range(self.n)])

    def samples_of(self, j):
        if self.sample_counts is None:
            return 1  # sampleless suites act as one "sample" per agent
        return self.sample_counts[j]


def make_quadratic(targets, curvatures):
    """Strongly convex suite f_j(x) = (a_j/2) ||x - t_j||^2.

    ``targets`` is (n, d); ``curvatures`` broadcasts to length n and must be
    positive.  The summed objective has the closed-form minimizer
    x* = sum a_j t_j / sum a_j.
    """
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    n, d = targets.shape
    a = np.broadcast_to(np.asarray(curvatures, dtype=float), (n,)).copy()
    if (a <= 0).any():
        raise ValueError("curvatures must be positive")
    x_star = (a[:, None] * targets).sum(axis=0) / a.sum()
    f_star = float(sum(0.5 * a[j] * np.sum((x_star - targets[j]) ** 2) for j in range(n)))
    return ObjectiveSuite(
        n=n,
        d=d,
        kind="quadratic",
        value_fn=lambda j, x: 0.5 * a[j] * np.sum((x - targets[j]) ** 2, axis=-1),
        grad_fn=lambda j, x: a[j] * (x - targets[j]),
        l_m=float(a.max()),
        mu_m=float(a.min()),
        x_star=x_star,
        f_star=f_star,
        params={"targets": targets, "curvatures": a},
    )


def _pl_value(z):
    return np.sum(z**2 + 3.0 * np.sin(z) ** 2, axis=-1)


def _pl_grad(z):
    return 2.0 * z + 3.0 * np.sin(2.0 * z)


def make_pl(n, shifts=0.0, pl_grid=None):
    """Scalar smooth non-convex PL suite f_j(x) = (x-s_j)^2 + 3 sin^2(x-s_j).

    Smooth with constant 8, not convex (second derivative dips to -4), yet
    satisfies the gradient-dominance inequality; the declared PL constant is
    estimated on a grid via :func:`estimate_pl_constant`.
    """
    s = np.broadcast_to(np.asarray(shifts, dtype=float).reshape(-1, 1), (n, 1)).copy()
    if np.ptp(s) == 0.0:
        x_star = s[0].copy()
        f_star = 0.0
    else:
        from scipy.optimize import minimize

        # d=1: coarse scan plus local polish on the summed objective
        xs = np.linspace(s.min() - 3.0, s.max() + 3.0, 2001)
        vals = [sum(_pl_value(x - s[j]) for j in range(n)) for x in xs]
        x0 = xs[int(np.argmin(vals))]
        res = minimize(
            lambda v: sum(_pl_value(v[0] - s[j, 0]) for j in range(n)),
            np.array([x0]),
            jac=lambda v: np.array([sum(_pl_grad(np.array([v[0] - s[j, 0]]))[0] for j in range(n))]),
        )
        x_star = np.array([res.x[0]])
        f_star = float(res.fun)
    suite = ObjectiveSuite(
        n=n,
        d=1,
        kind="pl",
        value_fn=lambda j, x: _pl_value(x - s[j]),
        grad_fn=lambda j, x: _pl_grad(x - s[j]),
        l_m=PL_SMOOTHNESS,
        mu_m=0.0,
        x_star=x_star,
        f_star=f_star,
        params={"shifts": s},
    )
    grid = np.arange(-10.0, 10.0, 1e-3) if pl_grid is None else pl_grid
    suite.pl_constant = estimate_pl_constant(suite, grid)
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


def save_dataset_csv(dataset, path):
    header = ",".join([f"x{i}" for i in range(dataset.d_feat)] + ["label"])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row, lab in zip(dataset.features, dataset.labels):
            fh.write(",".join(repr(float(v)) for v in row) + f",{int(lab)}\n")


def load_dataset_csv(path):
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if header[-1] != "label":
            raise ValueError("dataset CSV must end with a 'label' column")
        feats, labs = [], []
        for line in fh:
            parts = line.strip().split(",")
            if not parts or parts == [""]:
                continue
            feats.append([float(v) for v in parts[:-1]])
            labs.append(int(parts[-1]))
    return Dataset(features=np.array(feats), labels=np.array(labs, dtype=int))


def make_logistic(dataset, reg=0.0):
    """Per-agent l2-regularized logistic losses over the dataset partitions.

    Labels are mapped one-vs-rest against class 0 (y = -1 for class 0, +1
    otherwise; the binary case reduces to the usual +-1 encoding).  Each
    agent's loss is the mean cross entropy over its partition plus
    (reg/2)||w||^2, so minibatch estimates stay unbiased.
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
    feats, labs = [], []
    for part in dataset.partitions:
        feats.append(dataset.features[part])
        labs.append(ys[part])

    def value(j, w):
        z = labs[j] * (feats[j] @ w)
        return np.mean(np.logaddexp(0.0, -z)) + 0.5 * reg * np.dot(w, w)

    def grad(j, w):
        z = labs[j] * (feats[j] @ w)
        coef = -labs[j] / (1.0 + np.exp(z))
        return feats[j].T @ coef / len(labs[j]) + reg * w

    def sample_grad(j, idx, w):
        xs, yy = feats[j][idx], labs[j][idx]
        z = yy * (xs @ w)
        coef = -yy / (1.0 + np.exp(z))
        return xs.T @ coef / len(idx) + reg * w

    row_norm_sq = float((dataset.features**2).sum(axis=1).max())
    return ObjectiveSuite(
        n=n,
        d=d,
        kind="logistic",
        value_fn=value,
        grad_fn=grad,
        l_m=reg + 0.25 * row_norm_sq,
        mu_m=reg,
        sample_counts=tuple(len(p) for p in dataset.partitions),
        sample_grad_fn=sample_grad,
        params={"reg": reg},
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


def stochastic_grad(suite, oracle, j, x, rng):
    """One stochastic gradient draw for agent j at point x."""
    x = np.asarray(x, dtype=float)
    if oracle.mode == "additive":
        g = suite.grad(j, x)
        if oracle.sigma > 0.0:
            g = g + rng.normal(0.0, oracle.sigma / np.sqrt(suite.d), size=suite.d)
        return g
    n_j = suite.samples_of(j)
    if oracle.batch > n_j:
        raise ValueError(f"batch {oracle.batch} exceeds agent {j}'s {n_j} samples")
    if suite.sample_grad_fn is None or oracle.batch == n_j:
        return suite.grad(j, x)
    idx = rng.choice(n_j, size=oracle.batch, replace=False)
    return np.asarray(suite.sample_grad_fn(j, idx, x), dtype=float)


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

    def _check(self, states):
        states = np.asarray(states, dtype=float)
        if states.shape != (self.suite.n, self.suite.d):
            raise ValueError(f"expected states {(self.suite.n, self.suite.d)}, got {states.shape}")
        return states

    def penalty(self, states):
        if self.alpha is None:
            return 0.0
        states = self._check(states)
        return float(np.sum(states * (self._lap @ states)) / (2.0 * self.alpha))

    def value(self, states):
        states = self._check(states)
        return self.suite.stacked_value(states) + self.penalty(states)

    def grad(self, states):
        states = self._check(states)
        g = self.suite.stacked_grad(states)
        if self.alpha is not None:
            g = g + (self._lap @ states) / self.alpha
        return g

    def mu_prime(self, spectral):
        if self.alpha is None:
            return self.suite.mu_m
        return self.suite.mu_m + (1.0 - spectral.lambda_n) / (2.0 * self.alpha)

    def l_prime(self, spectral):
        if self.alpha is None:
            return self.suite.l_m
        return self.suite.l_m + (1.0 - spectral.lambda2) / self.alpha


def unified_optimum(objective):
    """Minimizer and minimum of the stacked (penalized) objective.

    Quadratic suites solve the closed form per coordinate; other suites fall
    back to multistart quasi-Newton minimization over the stacked space.
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
    from scipy.optimize import minimize

    starts = [np.zeros((n, d))]
    if suite.x_star is not None:
        starts.append(np.tile(suite.x_star, (n, 1)))
    if suite.kind == "pl":
        starts.append(suite.params["shifts"].copy())
    best = None
    for s0 in starts:
        res = minimize(
            lambda v: objective.value(v.reshape(n, d)),
            s0.ravel(),
            jac=lambda v: objective.grad(v.reshape(n, d)).ravel(),
            method="L-BFGS-B",
            options={"gtol": 1e-12, "ftol": 1e-15},
        )
        if best is None or res.fun < best.fun:
            best = res
    return best.x.reshape(n, d), float(best.fun)


def common_optimum(suite):
    """Minimum of the summed objective F(x) = sum_j f_j(x) at a shared point.

    Uses the declared closed form when available, otherwise multistart
    quasi-Newton minimization (and caches the result on the suite).
    """
    if suite.f_star is not None:
        return suite.f_star
    from scipy.optimize import minimize

    starts = [np.zeros(suite.d)]
    if suite.x_star is not None:
        starts.append(np.asarray(suite.x_star, dtype=float))
    best = None
    for s0 in starts:
        res = minimize(
            lambda v: suite.common_value(v),
            s0,
            jac=lambda v: suite.common_grad(v),
            method="L-BFGS-B",
            options={"gtol": 1e-12, "ftol": 1e-15},
        )
        if best is None or res.fun < best.fun:
            best = res
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
    pts = grid.reshape(-1, 1)
    fbar = sum(np.asarray(suite.value_fn(j, pts), dtype=float) for j in range(suite.n)) / suite.n
    gbar = sum(np.asarray(suite.grad_fn(j, pts), dtype=float) for j in range(suite.n))[:, 0] / suite.n
    gap = fbar - suite.f_star / suite.n
    away = gap > 1e-12
    if not away.any():
        raise ValueError("grid contains no points away from the optimum")
    return float(np.min(gbar[away] ** 2 / (2.0 * gap[away])))
