"""The decentralized momentum SGD loop: consensus, momentum blend, local step.

Each iteration every agent averages its neighbors' parameters (consensus),
forms a momentum increment that blends its own displacement with the
displacement of its consensus variable via the weight w (fixed or adaptive),
and takes a stochastic gradient step whose base point is either the
consensus variable (option I) or the local variable (option II).  Runs start
from the all-zeros state and record the full metric trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .objectives import stochastic_grad

__all__ = [
    "HyperParams",
    "AgentSwarm",
    "RunTrace",
    "momentum_delta",
    "adaptive_omega",
    "step_size_at",
    "step",
    "run",
    "agent_rngs",
]


@dataclass(frozen=True)
class HyperParams:
    """Algorithm inputs: step size (or sqrt schedule), momentum, blend weight.

    ``omega`` is a float in [0,1] or the string "adaptive"; adaptive scope
    "agent" uses each agent's own displacement norms, "global" uses the
    stacked norms (the variant with a compact-form counterpart).  ``alpha``
    has no default.  Option I penalizes at the constant step, so the sqrt(B/k)
    schedule runs under option II.  Frozen: the ranges checked here hold for
    its lifetime, and ``replace`` re-checks.
    """

    option: str = "I"
    alpha: float | None = None
    beta: float = 0.0
    omega: float | str = 0.0
    iters: int = 100
    seed: int = 0
    schedule: str = "constant"
    schedule_b: float | None = None
    adaptive_scope: str = "agent"

    def __post_init__(self):
        if self.option not in ("I", "II"):
            raise ValueError(f"option must be 'I' or 'II', got {self.option!r}")
        if self.schedule not in ("constant", "sqrt"):
            raise ValueError(f"unknown schedule {self.schedule!r}")
        if self.schedule == "constant" and (self.alpha is None or self.alpha <= 0):
            raise ValueError("constant schedule needs alpha > 0")
        if self.schedule == "sqrt" and (self.schedule_b is None or self.schedule_b <= 0):
            raise ValueError("sqrt schedule needs B > 0")
        if not (0.0 <= self.beta < 1.0):
            raise ValueError(f"beta must lie in [0,1), got {self.beta}")
        if isinstance(self.omega, str):
            if self.omega != "adaptive":
                raise ValueError(f"omega must be a float or 'adaptive', got {self.omega!r}")
        elif not (0.0 <= self.omega <= 1.0):
            raise ValueError(f"omega must lie in [0,1], got {self.omega}")
        if self.adaptive_scope not in ("agent", "global"):
            raise ValueError(f"adaptive_scope must be 'agent' or 'global', got {self.adaptive_scope!r}")
        if self.iters < 0:
            raise ValueError("iters must be >= 0")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.schedule == "sqrt" and self.option == "I":
            raise ValueError("the sqrt(B/k) schedule varies the penalty weight of the option-I objective every "
                             "iteration; drive schedule runs through option II")


@dataclass
class AgentSwarm:
    """The run loop's state, the one object the package changes after building it: current/previous parameters
    and the previous consensus."""

    x_cur: np.ndarray
    x_prev: np.ndarray
    v_prev: np.ndarray
    k: int = 1

    @classmethod
    def zeros(cls, mixing, n, d):
        """Paper initialization: x_0 = x_1 = 0, v_0 = Pi x_0 = 0."""
        x = np.zeros((n, d))
        return cls(x_cur=x, x_prev=x.copy(), v_prev=mixing.entries @ x, k=1)


@dataclass(frozen=True, eq=False)
class RunTrace:
    """Per-iteration records for rows k = 1..iters plus the final swarm.

    ``draw_dev_sq`` is ||draws - exact stacked gradient||^2 of the oracle
    draw taken at each row, from which a pilot measures the noise level.
    ``abort``, None for a completed run, states why a run stopped as
    ``<reason> agent=<j|none> k=<iteration>``: ``nonfinite_value`` (the
    metrics at x_k or the running sum of squared gradient norms),
    ``nonfinite_grad`` (the oracle draw) or ``nonfinite_step`` (the new state
    or step norm), and the first agent whose own row went non-finite, or none
    when only a total over the agents or iterations overflowed.
    """

    COLUMNS: ClassVar[tuple] = (
        "consensus_err_max", "consensus_err_stacked", "value", "gap", "grad_norm_sq",
        "running_avg_grad", "step_norm", "omega_used", "draw_dev_sq")

    k: np.ndarray
    consensus_err_max: np.ndarray
    consensus_err_stacked: np.ndarray
    value: np.ndarray
    gap: np.ndarray
    grad_norm_sq: np.ndarray
    running_avg_grad: np.ndarray
    step_norm: np.ndarray
    omega_used: np.ndarray
    draw_dev_sq: np.ndarray
    swarm: AgentSwarm | None
    abort: str | None = None

    @property
    def status(self):
        return "completed" if self.abort is None else "aborted"

    def __len__(self):
        return len(self.k)


def momentum_delta(omega, x_cur, x_prev, v_cur, v_prev):
    """Blend of parameter and consensus displacements.

    ``omega``, a scalar or per-agent array, must lie in [0,1]; it is not
    checked here, since ``HyperParams`` checks a fixed one and
    ``adaptive_omega`` returns ratios.  omega = 1 recovers classic momentum,
    omega = 0 momentum on the consensus variables.
    """
    if np.ndim(omega) == 1:
        omega = omega[:, None]
    return omega * (x_cur - x_prev) + (1.0 - omega) * (v_cur - v_prev)


def adaptive_omega(x_cur, x_prev, v_cur, v_prev, scope="agent"):
    """Displacement-ratio weight cm1/(cm1+cm2), 0.5 at the 0/0 tie.

    Per-agent scope returns one weight per agent from that agent's own
    norms; global scope returns a single weight from the stacked norms.
    """
    if scope == "global":
        cm1 = np.linalg.norm(x_cur - x_prev)
        cm2 = np.linalg.norm(v_cur - v_prev)
        return 0.5 if cm1 + cm2 == 0.0 else float(cm1 / (cm1 + cm2))
    cm1 = np.linalg.norm(x_cur - x_prev, axis=1)
    cm2 = np.linalg.norm(v_cur - v_prev, axis=1)
    total = cm1 + cm2
    out = np.full(len(cm1), 0.5)
    nz = total > 0.0
    out[nz] = cm1[nz] / total[nz]
    return out


def step_size_at(hp, k):
    """alpha_k: the constant alpha, or sqrt(B/k) for the decaying schedule."""
    if hp.schedule == "constant":
        return hp.alpha
    if k < 1:
        raise ValueError("sqrt schedule needs k >= 1")
    return float(np.sqrt(hp.schedule_b / k))


def _first_nonfinite_row(*arrays):
    """Index of the first agent whose row is non-finite in any of ``arrays``, else "none"."""
    for arr in arrays:
        bad = np.flatnonzero(~np.isfinite(arr).reshape(len(arr), -1).all(axis=1))
        if bad.size:
            return int(bad[0])
    return "none"


def step(swarm, mixing, hp, grads):
    """Advance the swarm one iteration using the supplied gradient draws.

    ``grads`` must be the N x d matrix of per-agent stochastic gradients
    evaluated at the current parameters, finite (``run`` checks each draw);
    ``hp.option`` picks the base point.  Returns the omega actually used
    (scalar or per-agent array).  The consensus read v = Pi x happens before
    any state write, so agents can be thought of as updating in parallel.
    """
    grads = np.asarray(grads, dtype=float)
    if grads.shape != swarm.x_cur.shape:
        raise ValueError(f"gradient shape {grads.shape} != state shape {swarm.x_cur.shape}")
    v_cur = mixing.entries @ swarm.x_cur
    omega = hp.omega
    if omega == "adaptive":
        omega = adaptive_omega(swarm.x_cur, swarm.x_prev, v_cur, swarm.v_prev, hp.adaptive_scope)
    delta = momentum_delta(omega, swarm.x_cur, swarm.x_prev, v_cur, swarm.v_prev)
    alpha_k = step_size_at(hp, swarm.k)
    base = v_cur if hp.option == "I" else swarm.x_cur
    x_next = base - alpha_k * grads + hp.beta * delta
    swarm.x_prev = swarm.x_cur
    swarm.x_cur = x_next
    swarm.v_prev = v_cur
    swarm.k += 1
    return omega


def agent_rngs(seed, n):
    """Independent per-agent generators keyed by (master seed, agent id)."""
    return [np.random.default_rng(np.random.SeedSequence(entropy=(int(seed), j))) for j in range(n)]


def consensus_errors(x):
    """(max_j ||x_j - xbar||, ||x - xbar stacked||)."""
    xbar = x.mean(axis=0)
    dev = x - xbar
    per_agent = np.linalg.norm(dev, axis=1)
    return float(per_agent.max()), float(np.linalg.norm(dev))


def run(objective, oracle, hp, f_star):
    """Execute the full loop from zero initialization and record the trace.

    ``objective`` is the only source of the problem: its suite supplies the
    local losses and its mixing matrix the consensus step, and its stacked
    value/gradient feed the metric columns.  It must be the objective
    ``UnifiedObjective.of_run`` builds for ``hp`` (penalized at ``hp.alpha``
    for option I, plain F for option II); any other is refused with
    ``ValueError`` before the loop starts.  ``f_star`` is its optimal value, so
    gap = objective(x) - f_star; an ``f_star`` of nan makes only that column nan.  Each iterate is evaluated once, by
    ``suite.evaluate``: its local values and gradients feed the metric value
    and gradient, the exact gradients are the base of the oracle draw, and
    an abort's diagnostics reuse them.  The penalty and its gradient share
    one product with I - Pi.  Deterministic given (seed, config).  Each
    completed iteration is one record in ``RunTrace.COLUMNS`` order; a
    non-finite value, draw or step ends the loop and sets ``abort``.
    """
    objective.check_fits(hp)
    suite, mixing = objective.suite, objective.mixing
    n, d = suite.n, suite.d
    swarm = AgentSwarm.zeros(mixing, n, d)
    rngs = agent_rngs(hp.seed, n)
    rows = []  # one tuple per completed iteration, in RunTrace.COLUMNS order
    reason = None
    grad_sq_sum = 0.0
    # a diverging run overflows before the finiteness checks below abort it
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, hp.iters + 1):
            x_k = swarm.x_cur
            err_max, err_stacked = consensus_errors(x_k)
            values, exact = suite.evaluate(x_k)
            val, metric_grad = objective.value_and_grad(x_k, (values, exact))
            metric_grad_sq = metric_grad ** 2
            gsq = float(np.sum(metric_grad_sq))
            grad_sq_sum += gsq
            # the sum is non-finite when gsq is, and when it overflows: no row writes an inf running average
            if not (np.isfinite(val) and np.isfinite(grad_sq_sum) and np.isfinite(err_stacked)):
                reason, suspects = "nonfinite_value", (x_k, exact, values, metric_grad_sq)
                break
            draws = stochastic_grad(suite, oracle, x_k, exact, rngs)
            if not np.isfinite(draws).all():
                reason, suspects = "nonfinite_grad", (draws,)
                break
            omega = step(swarm, mixing, hp, draws)
            step_norm = float(np.linalg.norm(swarm.x_cur - swarm.x_prev))
            if not (np.isfinite(swarm.x_cur).all() and np.isfinite(step_norm)):
                reason, suspects = "nonfinite_step", (swarm.x_cur, np.linalg.norm(swarm.x_cur - swarm.x_prev, axis=1))
                break
            rows.append((err_max, err_stacked, val, val - f_star, gsq, grad_sq_sum / (k + 1), step_norm,
                         float(np.mean(omega)), float(np.sum((draws - exact) ** 2))))
    abort = None if reason is None else f"{reason} agent={_first_nonfinite_row(*suspects)} k={k}"
    table = np.array(rows, dtype=float).reshape(-1, len(RunTrace.COLUMNS))
    return RunTrace(k=np.arange(1, len(rows) + 1), swarm=swarm, abort=abort, **dict(zip(RunTrace.COLUMNS, table.T)))
