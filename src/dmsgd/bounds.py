"""Closed-form consensus and convergence bounds as one parameterized engine.

All bounds are functions of the same symbol set: step size, momentum, the
blended second eigenvalue Lambda, the spectral floor eta of the blended
mixing matrix, the agent count, a gradient bound G, a noise level sigma, a
smoothness constant L, and (where relevant) a strong-convexity or
gradient-dominance constant.  Feeding penalized-objective constants
evaluates the first update variant's bounds; feeding the plain-objective
constants (Lipschitz bound of F, its own noise level, L_m, mu_m) evaluates
the second variant's — the formulas are identical under that renaming.
``BoundInputs.of_run`` is the one place that takes these symbols from a run;
G and the stacked sigma are its caller's.

Each bound has one form; the PL asymptote stays as printed, R/(2 a mu_hat^2).
Both gap trajectories come from one builder, ``_trajectory``, which returns an
empty array for zero iterations.  A bound refuses inputs it cannot support by
raising ``ValueError`` with the reason.  ``BOUNDS`` holds one ``Bound`` record
per bound that ``dmsgd bounds`` writes: the trace column it dominates, when it
applies and its values; ``evaluate_bounds`` evaluates each record that applies
and collects each refusal, which ``bounds.csv`` records as a ``skipped.<name>``
line.  ``check_bound_domination`` gives the verdict ``dmsgd check`` prints: a
metric trajectory against a bound trajectory, row by row, with a relative slack.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .topology import JACOBI_TOL

__all__ = [
    "BoundInputs",
    "consensus_bound",
    "displacement_bound",
    "r_constant",
    "strongly_convex_trajectory",
    "pl_trajectory",
    "nonconvex_alpha_star",
    "nonconvex_avg_grad_bound",
    "simpler_step_bound",
    "simpler_q",
    "optimal_schedule_b",
    "DominationReport",
    "check_bound_domination",
]


@dataclass(frozen=True)
class BoundInputs:
    """Constants feeding the closed-form bounds.

    ``alpha`` is ``None`` for a sqrt(B/k) schedule, which has no constant step
    size; every bound that reads it then refuses the inputs.  ``eta``, the
    blended mixing matrix's smallest eigenvalue, must lie above the spectrum's
    tolerance ``JACOBI_TOL``, below which it cannot be told from zero.
    ``gap1`` is the initial objective gap (identical to the zero-state gap
    under the all-zeros initialization).  ``dmsgd bounds`` records the fields
    as ``bounds.csv`` metadata in this order.
    """

    alpha: float | None
    beta: float
    lam: float  # blended second eigenvalue
    eta: float | None = None
    n_agents: int = 1
    grad_bound: float = 0.0  # G
    sigma: float = 0.0
    smooth: float = 1.0  # L
    strong_mu: float | None = None
    pl_mu: float | None = None
    gap1: float | None = None

    def __post_init__(self):
        if self.alpha is not None and self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if not (0.0 <= self.beta < 1.0):
            raise ValueError("beta must lie in [0,1)")
        if self.beta * self.lam >= 1.0:
            raise ValueError("beta * Lambda must be < 1")
        if self.eta is not None and not (JACOBI_TOL < self.eta <= 1.0):
            raise ValueError(f"eta = lambda_min of the blended mixing matrix must lie in ({JACOBI_TOL}, 1], got "
                             f"{self.eta}; the spectrum cannot show that a smaller eta is positive, and only a "
                             "positive-definite blend admits a consensus bound")
        if self.grad_bound < 0 or self.sigma < 0:
            raise ValueError("gradient bound and sigma must be >= 0")
        if self.smooth <= 0:
            raise ValueError("smoothness must be positive")
        if self.n_agents < 1:
            raise ValueError("agent count must be >= 1")

    @classmethod
    def of_run(cls, objective, spectral, hp, f_star, grad_bound=0.0, sigma=0.0):
        """The inputs of the run of ``hp`` on ``objective``, whose mixing matrix has the spectrum ``spectral``.

        Lambda and eta are the blended matrix's at a fixed omega; an adaptive blend's weight ranges over [0, 1],
        so Lambda is taken at its worst, w = 1, and eta at w = 0.  L and mu are the stacked objective's L' and
        mu' (mu' only for a strongly convex suite), the PL constant is the suite's, and gap1 is the objective at
        the all-zeros start less ``f_star``.  G and the stacked sigma are the caller's to measure or state.
        ``objective`` must be the one ``UnifiedObjective.of_run`` builds for ``hp``, as ``run`` requires: any other
        is refused with ``ValueError``, since its L', mu' and gap1 belong to no run of ``hp``.
        """
        objective.check_fits(hp)
        suite = objective.suite
        lam_w, eta_w = (1.0, 0.0) if hp.omega == "adaptive" else (hp.omega, hp.omega)
        return cls(alpha=hp.alpha if hp.schedule == "constant" else None, beta=hp.beta,
                   lam=spectral.blended(lam_w)[0], eta=spectral.blended(eta_w)[1], n_agents=suite.n,
                   grad_bound=grad_bound, sigma=sigma, smooth=objective.l_prime(spectral),
                   strong_mu=objective.mu_prime(spectral) if suite.mu_m > 0 else None,
                   pl_mu=suite.pl_constant, gap1=objective.value(np.zeros((suite.n, suite.d))) - f_star)

    @property
    def bl(self):
        return self.beta * self.lam

    @property
    def second_moment(self):
        return self.grad_bound**2 + self.sigma**2


def _finite(bound):
    """Refuse a bound that the inputs overflow to inf or nan with ``ValueError``.

    Inputs each in range can still overflow a bound (R reaches inf, then
    inf - inf is nan); a non-finite value bounds nothing, so the engine raises
    instead of returning it, and numpy's float warnings stay off meanwhile.
    """

    @functools.wraps(bound)
    def checked(*args, **kwargs):
        try:
            with np.errstate(all="ignore"):
                value = bound(*args, **kwargs)
        except OverflowError as exc:  # Python float ** overflows with an error, not inf
            raise ValueError(f"{bound.__name__} overflows for these inputs") from exc
        if not np.isfinite(value).all():
            raise ValueError(f"{bound.__name__} is not finite for these inputs")
        return value

    return checked


def _alpha(bi):
    """The constant step size ``bi.alpha``; a bound that reads it refuses a schedule run's ``None``."""
    if bi.alpha is None:
        raise ValueError("this bound needs a constant step size alpha; a sqrt(B/k) schedule has none")
    return bi.alpha


@_finite
def consensus_bound(bi):
    """Uniform per-agent consensus error bound.

    8 a sqrt(N) sqrt(G^2 + s^2) / (sqrt(eta (1 - bL)) (1 - sqrt(bL))).
    Requires eta > 0 from the actual blended matrix.
    """
    if bi.eta is None:
        raise ValueError("consensus bound needs eta = lambda_min of the blended mixing matrix")
    bl = bi.bl
    num = 8.0 * _alpha(bi) * np.sqrt(bi.n_agents) * np.sqrt(bi.second_moment)
    den = np.sqrt(bi.eta * (1.0 - bl)) * (1.0 - np.sqrt(bl))
    return float(num / den)


@_finite
def displacement_bound(bi, k):
    """Expected squared step length bound a^2 (G^2+s^2)/(1-bL)^2 (1-(bL)^{k+1})^2.

    k (a scalar or an array) counts completed updates from 0; as k grows the
    bound rises to a^2 (G^2+s^2)/(1-bL)^2.
    """
    loose = _alpha(bi) ** 2 * bi.second_moment / (1.0 - bi.bl) ** 2
    k = np.asarray(k)
    if (k < 0).any():
        raise ValueError("k must be >= 0")
    return loose * (1.0 - bi.bl ** (k + 1)) ** 2


@_finite
def r_constant(bi):
    """Residual constant R = aGs + aG sqrt(G^2+s^2)/(1-bL) + L a^2 (G^2+s^2)/(2(1-bL)^2)."""
    a = _alpha(bi)
    return float(
        a * bi.grad_bound * bi.sigma
        + a * bi.grad_bound * np.sqrt(bi.second_moment) / (1.0 - bi.bl)
        + bi.smooth * a**2 * bi.second_moment / (2.0 * (1.0 - bi.bl) ** 2)
    )


def _trajectory(bi, theta, admissible, asymptote, k_max):
    """asymptote + (1 - theta)^(k-1) (gap1 - asymptote) for k = 1..k_max, gap1 exactly at k = 1.

    Refuses a missing gap1, then a contraction theta outside (0, 1], naming the
    caller's ``admissible`` step-size range; only then calls ``asymptote()``.
    k_max = 0 gives an empty trajectory.
    """
    if bi.gap1 is None:
        raise ValueError("trajectory bounds need the initial gap gap1")
    if not (0.0 < theta <= 1.0):
        raise ValueError(f"alpha outside the admissible range {admissible}: contraction {theta}")
    limit = asymptote()
    vals = limit + (1.0 - theta) ** np.arange(k_max) * (bi.gap1 - limit)
    vals[:1] = bi.gap1  # exact telescoping base case
    return vals


@_finite
def strongly_convex_trajectory(bi, k_max):
    """Gap bound trajectory for k = 1..k_max under strong convexity.

    Built by ``_trajectory``: asymptote R L/(2 a mu^2) plus geometric decay of
    the initial gap at factor (1 - 2 a mu^2 / L); requires a <= L/(2 mu^2).
    """
    if bi.strong_mu is None or bi.strong_mu <= 0:
        raise ValueError("strongly convex trajectory needs strong_mu > 0")
    a, mu, l = _alpha(bi), bi.strong_mu, bi.smooth
    return _trajectory(bi, 2.0 * a * mu**2 / l, "(0, L/(2 mu^2)]",
                       lambda: r_constant(bi) * l / (2.0 * a * mu**2), k_max)


@_finite
def pl_trajectory(bi, k_max):
    """Gap bound trajectory under gradient dominance, as printed.

    Built by ``_trajectory``: asymptote R/(2 a mu_hat^2) as printed (the
    dimensionally consistent form would be R/(2 a mu_hat)), contraction factor
    (1 - 2 a mu_hat); requires a <= 1/(2 mu_hat).
    """
    if bi.pl_mu is None or bi.pl_mu <= 0:
        raise ValueError("PL trajectory needs pl_mu > 0")
    a, mu = _alpha(bi), bi.pl_mu
    return _trajectory(bi, 2.0 * a * mu, "(0, 1/(2 mu_hat)]",
                       lambda: r_constant(bi) / (2.0 * a * mu**2), k_max)


@_finite
def nonconvex_alpha_star(bi):
    """The variance-aware constant step size for the non-convex rate.

    [(G^2+s^2)(1-(bL)^2) - s^2 (1-bL)^2 - 2 (1-bL) bL s sqrt(G^2+s^2)]
    / (L (G^2+s^2)); with s = 0 this collapses to (1-(bL)^2)/L.  Positive
    whenever G > 0; a non-positive value is reported as an inconsistency.
    """
    bl = bi.bl
    p = bi.second_moment
    if p <= 0:
        raise ValueError("gradient bound and sigma cannot both be zero")
    num = p * (1.0 - bl**2) - bi.sigma**2 * (1.0 - bl) ** 2
    num -= 2.0 * (1.0 - bl) * bl * bi.sigma * np.sqrt(p)
    alpha = float(num / (bi.smooth * p))
    if alpha <= 0:
        raise ValueError(
            f"non-positive step size {alpha}: the positivity argument requires G > 0 "
            f"(got G={bi.grad_bound}, sigma={bi.sigma})"
        )
    return alpha


@_finite
def nonconvex_avg_grad_bound(bi, k):
    """Averaged-gradient envelope 2 gap1 / (a (k+1)) at trace row k."""
    if bi.gap1 is None:
        raise ValueError("the envelope needs the initial gap")
    k = np.asarray(k)
    return 2.0 * bi.gap1 / (_alpha(bi) * (k + 1))


@_finite
def simpler_q(bi, schedule_b):
    """Q = 2 gap1/sqrt(B) + sqrt(B) L (G^2+s^2)/(1-bL)^2."""
    if schedule_b <= 0:
        raise ValueError("B must be positive")
    if bi.gap1 is None:
        raise ValueError("the sqrt-schedule bound needs the initial gap")
    return float(
        2.0 * bi.gap1 / np.sqrt(schedule_b)
        + np.sqrt(schedule_b) * bi.smooth * bi.second_moment / (1.0 - bi.bl) ** 2
    )


@_finite
def simpler_step_bound(bi, schedule_b, k):
    """Q/sqrt(k) envelope for the sqrt(B/k) step-size schedule, k >= 1."""
    k = np.asarray(k)
    if (k < 1).any():
        raise ValueError("k must be >= 1")
    return simpler_q(bi, schedule_b) / np.sqrt(k)


@_finite
def optimal_schedule_b(bi):
    """B minimizing Q: 2 gap1 (1-bL)^2 / (L (G^2+s^2))."""
    if bi.gap1 is None:
        raise ValueError("needs the initial gap")
    if bi.second_moment <= 0:
        raise ValueError("needs a positive gradient second moment")
    return float(2.0 * bi.gap1 * (1.0 - bi.bl) ** 2 / (bi.smooth * bi.second_moment))


def _identity(metric):
    return metric


@dataclass(frozen=True)
class Bound:
    """One bound of ``bounds.csv``: it dominates ``transform`` of the trace ``column``, applies to runs on
    ``schedule`` whose inputs hold the ``needs`` constant, and ``values(bi, hp, ks)`` gives its rows ks."""

    column: str
    values: object
    schedule: str = "constant"
    needs: str | None = None
    transform: object = _identity


# every bound, in bounds.csv's row order; each values function calls its formula by its module-global name, so a
# wrapper set on this module sees the call
BOUNDS = {
    "consensus": Bound("consensus_err_max", lambda bi, hp, ks: np.full(len(ks), consensus_bound(bi))),
    "displacement_sq": Bound("step_norm", lambda bi, hp, ks: displacement_bound(bi, ks), transform=lambda m: m**2),
    "avg_grad_envelope": Bound("running_avg_grad", lambda bi, hp, ks: nonconvex_avg_grad_bound(bi, ks)),
    "cor1_gap": Bound("gap", lambda bi, hp, ks: strongly_convex_trajectory(bi, len(ks)), needs="strong_mu"),
    "thm2_gap": Bound("gap", lambda bi, hp, ks: pl_trajectory(bi, len(ks)), needs="pl_mu"),
    "sqrt_step_q": Bound("running_avg_grad", lambda bi, hp, ks: simpler_step_bound(bi, hp.schedule_b, ks),
                         schedule="sqrt"),
}


def evaluate_bounds(bi, hp):
    """Every bound of ``BOUNDS`` whose schedule ``hp`` runs and whose constant ``bi`` holds, at rows 1..hp.iters.

    Returns ``(reports, skipped)``: ``(name, ks, values)`` rows, and ``{name: reason}`` for each of these bounds
    the engine refused for these inputs (its ``ValueError``).  Any other exception propagates.
    """
    ks = np.arange(1, hp.iters + 1)
    reports, skipped = [], {}
    for name, bound in BOUNDS.items():
        if hp.schedule != bound.schedule or (bound.needs and getattr(bi, bound.needs) is None):
            continue
        try:
            reports.append((name, ks, bound.values(bi, hp, ks)))
        except ValueError as exc:
            skipped[name] = str(exc)
    return reports, skipped


@dataclass(frozen=True)
class DominationReport:
    """Outcome of metric <= bound * (1 + slack) checked row by row."""

    passed: bool
    checked: int
    first_violation: int | None = None
    metric_at_violation: float | None = None
    bound_at_violation: float | None = None
    worst_ratio: float = 0.0


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
