"""Legendre-transform machinery: tail levels a -> tilts theta_a, rate values
I(a) = a theta_a - mu(theta_a), and curvatures I''(a) = 1 / mu''(theta_a),
with mu' and mu'' exact from eigenvalue perturbation."""
from __future__ import annotations

from dataclasses import dataclass

from .discretize import operators_for
from .errors import AdmissibleRangeError, ConvergenceError
from .model import ModelSpec
from .spectral import _perturbation, spectral_mu_prime

# theta values at which mu'(theta) would overflow the semigroup scale
THETA_HARD_CAP = 64.0
# root-finding steps of solve_theta; bisection alone halves the bracket to
# 1e-14 relative within 60
_MAX_STEPS = 100


@dataclass(frozen=True)
class RatePoint:
    """One point of the rate curve: level, tilt, rate value, curvature."""

    a: float
    theta: float
    rate: float
    curvature: float

    def duality_residual(self, mu_theta: float) -> float:
        return abs(self.rate + mu_theta - self.a * self.theta)


@dataclass(frozen=True)
class RateTable:
    points: tuple[RatePoint, ...]
    failures: tuple[tuple[float, str], ...] = ()


def solve_theta(spec: ModelSpec, a: float, *, n: int | None = None) -> float:
    """Unique tilt with mu'(theta_a) = a, by secant steps safeguarded by
    bisection on a bracket.  The bracket starts at [0, 1] and doubles while
    mu' at its end is at most a, up to THETA_HARD_CAP; the admissible range
    is the open interval (mu'(0), mu'(end))."""
    return _solve(operators_for(spec, n), float(a))[0]


def _solve(ops, a: float) -> tuple[float, float, float]:
    """(theta_a, mu'(theta_a), mu''(theta_a)) for ``solve_theta``, with one
    perturbation solve at theta_a serving its checks and the curvature."""
    lo, hi = 0.0, 1.0
    dlo = spectral_mu_prime(ops, lo)
    dhi = spectral_mu_prime(ops, hi)
    while dhi <= a and hi < THETA_HARD_CAP:
        hi = min(2.0 * hi, THETA_HARD_CAP)
        dhi = spectral_mu_prime(ops, hi)
    if not (dlo < a < dhi):
        raise AdmissibleRangeError(
            f"a={a:.6g} outside the admissible open range ({dlo:.6g}, {dhi:.6g}) "
            f"explored over theta in [0, {hi:.6g}]")

    # mu' - a increases through zero on [lo, hi].  Secant steps through the
    # two latest points, from the bracket ends on; a step that would leave
    # the bracket, which shrinks at every evaluation, is a bisection.
    prev, f_prev = hi, dhi - a
    theta = lo + (hi - lo) * (a - dlo) / (dhi - dlo)
    for _ in range(_MAX_STEPS):
        f = spectral_mu_prime(ops, theta) - a
        if f == 0.0:
            break
        if f < 0.0:
            lo = theta
        else:
            hi = theta
        tol = 1e-14 * max(1.0, abs(theta))
        if hi - lo < tol:
            break
        slope = (f - f_prev) / (theta - prev)
        step = f / slope if slope > 0.0 else float("inf")
        if abs(step) < tol:
            break
        prev, f_prev = theta, f
        theta = theta - step if lo < theta - step < hi else 0.5 * (lo + hi)
    d1, d2, _ = _perturbation(ops, theta)
    if d2 <= 0.0:
        raise ConvergenceError(
            f"mu''({theta:.6g}) = {d2:.3e} is not positive: convexity condition violated")
    resid = abs(d1 - a)
    if resid > 1e-10:
        raise ConvergenceError(f"mu'(theta_a) missed a by {resid:.3e} (> 1e-10)")
    return float(theta), d1, d2


def rate_point(spec: ModelSpec, a: float, *, n: int | None = None) -> RatePoint:
    """Rate value and curvature at level a via the Legendre transform."""
    ops = operators_for(spec, n)
    theta, _, d2 = _solve(ops, float(a))
    rate = a * theta - ops.mu(theta)
    if rate < -1e-12:
        raise ConvergenceError(f"negative rate value {rate:.3e}")
    return RatePoint(a=float(a), theta=theta, rate=max(rate, 0.0), curvature=1.0 / d2)


def rate_table(spec: ModelSpec, a_list, *, n: int | None = None) -> RateTable:
    """Elementwise rate points; per-entry admissibility failures are collected
    rather than fatal."""
    points: list[RatePoint] = []
    failures: list[tuple[float, str]] = []
    for a in a_list:
        try:
            points.append(rate_point(spec, a, n=n))
        except AdmissibleRangeError as exc:
            failures.append((float(a), str(exc)))
    return RateTable(points=tuple(points), failures=tuple(failures))
