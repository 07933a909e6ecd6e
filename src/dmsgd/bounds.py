"""Closed-form consensus and convergence bounds as one parameterized engine.

All bounds are functions of the same symbol set: step size, momentum, the
blended second eigenvalue Lambda, the spectral floor eta of the blended
mixing matrix, the agent count, a gradient bound G, a noise level sigma, a
smoothness constant L, and (where relevant) a strong-convexity or
gradient-dominance constant.  Feeding penalized-objective constants
evaluates the first update variant's bounds; feeding the plain-objective
constants (Lipschitz bound of F, its own noise level, L_m, mu_m) evaluates
the second variant's — the formulas are identical under that renaming.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BoundInputs",
    "PositivityReport",
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
    "verify_alpha_positivity",
    "descent_slack",
]


@dataclass(frozen=True)
class BoundInputs:
    """Constants feeding the closed-form bounds.

    ``eta`` must come from an actual blended mixing matrix with positive
    smallest eigenvalue; construction refuses non-positive values rather
    than inventing one.  ``gap1`` is the initial objective gap (identical to
    the zero-state gap under the all-zeros initialization).
    """

    alpha: float
    beta: float
    lam: float  # blended second eigenvalue
    n_agents: int = 1
    eta: float | None = None
    grad_bound: float = 0.0  # G
    sigma: float = 0.0
    smooth: float = 1.0  # L
    strong_mu: float | None = None
    pl_mu: float | None = None
    gap1: float | None = None

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if not (0.0 <= self.beta < 1.0):
            raise ValueError("beta must lie in [0,1)")
        if self.beta * self.lam >= 1.0:
            raise ValueError("beta * Lambda must be < 1")
        if self.eta is not None and not (0.0 < self.eta <= 1.0):
            raise ValueError(
                f"eta = lambda_min of the blended mixing matrix must lie in (0,1], got {self.eta}; "
                "non positive-definite blends admit no consensus bound"
            )
        if self.grad_bound < 0 or self.sigma < 0:
            raise ValueError("gradient bound and sigma must be >= 0")
        if self.smooth <= 0:
            raise ValueError("smoothness must be positive")
        if self.n_agents < 1:
            raise ValueError("agent count must be >= 1")

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
            raise ValueError(f"{bound.__name__} overflows for these inputs ({exc})") from exc
        if not np.isfinite(value).all():
            raise ValueError(f"{bound.__name__} is not finite for these inputs")
        return value

    return checked


@_finite
def consensus_bound(bi):
    """Uniform per-agent consensus error bound.

    8 a sqrt(N) sqrt(G^2 + s^2) / (sqrt(eta (1 - bL)) (1 - sqrt(bL))).
    Requires eta > 0 from the actual blended matrix.
    """
    if bi.eta is None:
        raise ValueError("consensus bound needs eta = lambda_min of the blended mixing matrix")
    bl = bi.bl
    num = 8.0 * bi.alpha * np.sqrt(bi.n_agents) * np.sqrt(bi.second_moment)
    den = np.sqrt(bi.eta * (1.0 - bl)) * (1.0 - np.sqrt(bl))
    return float(num / den)


def _fades(bl, k):
    """Tight factors (1 - (bL)^k, (1 - (bL)^{k+1})^2) at iteration k; (1, 1) when k is None."""
    return (1.0, 1.0) if k is None else (1.0 - bl**k, (1.0 - bl ** (k + 1)) ** 2)


def _residual(bi, fade, fade_next):
    """R's three terms, the second scaled by ``fade`` and the third by ``fade_next``."""
    return (
        bi.alpha * bi.grad_bound * bi.sigma
        + bi.alpha * bi.grad_bound * np.sqrt(bi.second_moment) * fade / (1.0 - bi.bl)
        + bi.smooth * fade_next * bi.alpha**2 * bi.second_moment / (2.0 * (1.0 - bi.bl) ** 2)
    )


def _geometric(bi, theta, asymptote, k_max):
    """asymptote + (1 - theta)^(k-1) (gap1 - asymptote) for k = 1..k_max, gap1 exactly at k = 1."""
    vals = asymptote + (1.0 - theta) ** np.arange(k_max) * (bi.gap1 - asymptote)
    vals[0] = bi.gap1  # exact telescoping base case
    return vals


@_finite
def displacement_bound(bi, k=None):
    """Expected squared step length bound; k-dependent tight form or loose.

    Loose: a^2 (G^2+s^2)/(1-bL)^2.  Tight at iteration k (0-based count of
    completed updates, a scalar or an array): multiply by ``_fades``'s (1-(bL)^{k+1})^2.
    """
    loose = bi.alpha**2 * bi.second_moment / (1.0 - bi.bl) ** 2
    if k is None:
        return float(loose)
    k = np.asarray(k)
    if (k < 0).any():
        raise ValueError("k must be >= 0")
    return loose * _fades(bi.bl, k)[1]


@_finite
def r_constant(bi):
    """Residual constant R = aGs + aG sqrt(G^2+s^2)/(1-bL) + L a^2 (G^2+s^2)/(2(1-bL)^2): ``_residual``."""
    return float(_residual(bi, 1.0, 1.0))


@_finite
def strongly_convex_trajectory(bi, k_max, tight=False):
    """Gap bound trajectory for k = 1..k_max under strong convexity.

    Closed form (``_geometric``): asymptote R L/(2 a mu^2) plus geometric decay of
    the initial gap at factor (1 - 2 a mu^2 / L); requires a <= L/(2 mu^2).  The tight
    variant iterates the one-step recursion with ``_residual(bi, *_fades(bL, k))`` for R.
    """
    if bi.strong_mu is None or bi.strong_mu <= 0:
        raise ValueError("strongly convex trajectory needs strong_mu > 0")
    if bi.gap1 is None:
        raise ValueError("trajectory bounds need the initial gap gap1")
    mu, l = bi.strong_mu, bi.smooth
    theta = 2.0 * bi.alpha * mu**2 / l
    if not (0.0 < theta <= 1.0):
        raise ValueError(f"alpha outside the admissible range (0, L/(2 mu^2)]: contraction {theta}")
    if not tight:
        return _geometric(bi, theta, r_constant(bi) * l / (2.0 * bi.alpha * mu**2), k_max)
    vals = np.empty(k_max)
    vals[0] = gap = bi.gap1
    for k in range(1, k_max):
        vals[k] = gap = (1.0 - theta) * gap + _residual(bi, *_fades(bi.bl, k))
    return vals


@_finite
def pl_trajectory(bi, k_max, residual_power=2):
    """Gap bound trajectory under gradient dominance, as printed.

    Asymptote R/(2 a mu_hat^p) with p = 2 as printed (p = 1 exposes the
    dimensionally consistent variant), contraction factor (1 - 2 a mu_hat),
    as ``_geometric``; requires a <= 1/(2 mu_hat).
    """
    if bi.pl_mu is None or bi.pl_mu <= 0:
        raise ValueError("PL trajectory needs pl_mu > 0")
    if bi.gap1 is None:
        raise ValueError("trajectory bounds need the initial gap gap1")
    if residual_power not in (1, 2):
        raise ValueError("residual_power must be 1 or 2")
    mu = bi.pl_mu
    theta = 2.0 * bi.alpha * mu
    if not (0.0 < theta <= 1.0):
        raise ValueError(f"alpha outside the admissible range (0, 1/(2 mu_hat)]: contraction {theta}")
    return _geometric(bi, theta, r_constant(bi) / (2.0 * bi.alpha * mu**residual_power), k_max)


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
    return 2.0 * bi.gap1 / (bi.alpha * (k + 1))


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


@dataclass
class PositivityReport:
    checked: int
    all_positive: bool
    min_alpha: float
    argmin: tuple
    failures: list


def verify_alpha_positivity(points):
    """Sweep (G, sigma, beta, Lambda, L) tuples and report min alpha*.

    Every admissible point (G > 0, beta*Lambda in [0,1), L > 0) must give a
    strictly positive step size; violations are collected rather than
    raised so degenerate inputs (G = 0) can be inspected.
    """
    min_alpha, argmin, failures = np.inf, None, []
    count = 0
    for g, sigma, beta, lam, smooth in points:
        count += 1
        try:
            alpha = nonconvex_alpha_star(
                BoundInputs(alpha=1.0, beta=beta, lam=lam, grad_bound=g, sigma=sigma, smooth=smooth)
            )
        except ValueError:
            failures.append((g, sigma, beta, lam, smooth))
            continue
        if alpha < min_alpha:
            min_alpha, argmin = alpha, (g, sigma, beta, lam, smooth)
    return PositivityReport(
        checked=count,
        all_positive=not failures,
        min_alpha=float(min_alpha),
        argmin=argmin,
        failures=failures,
    )


@_finite
def descent_slack(bi, k=None):
    """Additive slack of the per-step expected decrease (loose or tight).

    Everything on the right-hand side of the one-step descent inequality
    except the -(a/2) E||grad||^2 term.  k (0-based, as in the displacement
    bound) selects the tight variant, scaled by ``_fades``; the loose one has unit factors.
    """
    if k is not None and k < 0:
        raise ValueError("k must be >= 0")
    bl, p = bi.bl, bi.second_moment
    fade, fade_next = _fades(bl, k)
    return float(
        (bi.smooth * bi.alpha**2 - bi.alpha) * fade_next * p / (2.0 * (1.0 - bl) ** 2)
        + bi.alpha * bi.sigma**2 / 2.0
        + bi.alpha * bi.sigma * np.sqrt(p) * bl * fade / (1.0 - bl)
        + bi.alpha * bl**2 * fade**2 * p / (2.0 * (1.0 - bl) ** 2)
    )
