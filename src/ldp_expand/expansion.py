"""Tail expansion machinery.

Every expectation is inverted by one driver, ``_saddle_integral``, along the
saddle line Re z = theta_a with a weight function of z = theta + is:

    e^{I t} E[h(S_t - a t)] = (1/2 pi) int N(z) e^{-is a t} weight(z) ds,

N the transform E[e^{z S_t}] with its growth e^{t mu(theta)} factored out.
The weight is 1/z for the tail P(S_t >= a t) (``tail_curve``; ``exact_tail``
at one horizon) and f.laplace for a window (``weak_expectation``).  The
trapezoid step starts at the largest power of two whose aliasing error on
the Gaussian saddle of width w = 1/sqrt(t mu'') is below rel_tol/100, then is
halved (the span doubling) until two rounds agree to rel_tol; where the pole
of 1/z binds, the halving finds the finer step, and a level so near the mean
slope that MAX_ROUNDS rounds cannot reach it is refused before any node.
Lattice-valued chains replace 1/z by the lattice summation kernel over one
period, doubling the point count per round, and refuse in the same way a
level whose kernel pole needs more points than the last round has; both
inversions share one round loop, ``_settle``.  Higher coefficients come from
a weighted least-squares fit against t^{-(k+1/2)}; the leading one also has
a closed form.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .discretize import operators_for
from .errors import (AdmissibilityError, AdmissibleRangeError, ConvergenceError,
                     FitError, SemigroupOverflowError)
from .model import EvaluationFrame, ModelSpec
from .rate import RatePoint, rate_point

DEFAULT_REL_TOL = 1e-6
MAX_ROUNDS = 14
# points per period in the first round of the lattice inversion
LATTICE_POINTS = 64
FIT_CONDITION_CAP = 1e8
# warn when theta_a is close enough to 0 that the 1/theta_a prefactor blows up
BOUNDARY_THETA = 0.05

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(96)


@dataclass(frozen=True)
class TailCurve:
    """Tail probabilities and their normalized values over a time grid."""

    a: float
    t: tuple[float, ...]
    prob: tuple[float, ...]
    normalized: tuple[float, ...]  # e^{I(a) t} P(S_t >= a t)

    def __post_init__(self):
        for t, p, q in zip(self.t, self.prob, self.normalized):
            if not 0.0 < p < 1.0:
                raise ConvergenceError(f"tail probability {p:.3e} at t={t} is outside (0, 1)")
            if q <= 0.0:
                raise ConvergenceError(f"normalized tail {q:.3e} at t={t} is not positive")

    def flattened(self) -> np.ndarray:
        """sqrt(t) e^{I t} P, the sequence that converges to the leading coefficient."""
        return np.sqrt(np.asarray(self.t)) * np.asarray(self.normalized)


@dataclass(frozen=True)
class CoeffFit:
    """Expansion coefficients fitted from a normalized tail curve."""

    a: float
    order: int
    coefficients: tuple[float, ...]
    residual: float
    condition: float

    @property
    def d0(self) -> float:
        return self.coefficients[0]


@dataclass(frozen=True)
class TestFunction:
    """Closed-form window from the admissible catalog.

    ``decay_alpha`` is the left-exponential order: use at level a requires
    decay_alpha > theta_a.
    """

    kind: str
    params: tuple[float, ...]
    amplitude: float = 1.0
    decay_alpha: float = np.inf

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "gaussian":
            c, w = self.params
            return self.amplitude * np.exp(-((x - c) ** 2) / (2.0 * w * w))
        if self.kind == "one_sided_exp":
            (beta,) = self.params
            return self.amplitude * np.exp(-beta * x) * (x >= 0.0)
        if self.kind == "bump":
            c, w = self.params
            u = (x - c) / w
            out = np.zeros_like(u)
            inside = np.abs(u) < 1.0
            out[inside] = np.exp(1.0 - 1.0 / (1.0 - u[inside] ** 2))
            return self.amplitude * out
        raise ValueError(f"unknown test function kind {self.kind!r}")

    def laplace(self, z: complex) -> complex:
        """Two-sided Laplace transform  int f(x) e^{-z x} dx."""
        if self.kind == "gaussian":
            c, w = self.params
            return self.amplitude * np.sqrt(2.0 * np.pi) * w * np.exp(-z * c + 0.5 * z * z * w * w)
        if self.kind == "one_sided_exp":
            (beta,) = self.params
            return self.amplitude / (beta + z)
        if self.kind == "bump":
            c, w = self.params
            u = _GL_NODES
            vals = np.exp(1.0 - 1.0 / (1.0 - u**2)) * np.exp(-z * (c + w * u))
            return self.amplitude * w * np.sum(_GL_WEIGHTS * vals)
        raise ValueError(f"unknown test function kind {self.kind!r}")

    def require_admissible(self, theta: float):
        if not self.decay_alpha > theta:
            raise AdmissibilityError(
                f"test function decay order {self.decay_alpha} must exceed theta_a={theta:.6g}")


def gaussian_window(center: float = 0.0, width: float = 1.0, amplitude: float = 1.0) -> TestFunction:
    return TestFunction(kind="gaussian", params=(float(center), float(width)),
                        amplitude=float(amplitude))


def one_sided_exponential(beta: float, amplitude: float = 1.0) -> TestFunction:
    """e^{-beta x} on x >= 0; discontinuous at 0, left-exponential of order beta."""
    return TestFunction(kind="one_sided_exp", params=(float(beta),),
                        amplitude=float(amplitude), decay_alpha=float(beta))


def bump_window(center: float = 0.0, width: float = 1.0, amplitude: float = 1.0) -> TestFunction:
    return TestFunction(kind="bump", params=(float(center), float(width)),
                        amplitude=float(amplitude))


# ---------------------------------------------------------------------------
# Transform evaluation.

def mgf(spec: ModelSpec, frame: EvaluationFrame, z: complex, t: float, *,
        n: int | None = None, log: bool = False):
    """E_{x0}[e^{z S_t}] evaluated through the tilted semigroup.

    With ``log=True`` the complex logarithm is returned instead, which stays
    finite where the plain value would overflow.
    """
    ops = operators_for(spec, n)
    t = _check_time(ops, t)
    z = complex(z)
    mu_ref = ops.mu(z.real)
    val = complex(ops.nmgf(z, t, frame, mu_ref))
    if val == 0:
        raise ConvergenceError("transform value underflowed to zero")
    log_m = np.log(val) + t * mu_ref
    if log:
        return log_m
    if log_m.real > 700.0:
        raise SemigroupOverflowError(
            f"Re log E[e^(zS_t)] = {log_m.real:.3g} would overflow; use log=True")
    return complex(np.exp(log_m))


def _check_time(ops, t) -> float | int:
    """A horizon t, finite and positive: a step count on a chain
    (``ChainOperators.steps``), a float on a diffusion."""
    if not (math.isfinite(t) and t > 0):
        raise ValueError(f"time horizon must be finite and positive, got {t}")
    return ops.steps(t) if ops.is_chain else float(t)


def _inversion_setup(spec: ModelSpec, a: float, t_list, n, rel_tol):
    """The set-up every saddle-line inversion shares: the tolerance check,
    the rate point of level a, the workspace and the checked horizons."""
    if not 0.0 < rel_tol < 1.0:  # NaN and infinities fail the comparison too
        raise ValueError(f"rel_tol must be finite and in (0, 1), got {rel_tol}")
    ops = operators_for(spec, n)
    ts = [_check_time(ops, t) for t in t_list]
    return rate_point(spec, a, n=n), ops, ts


def exact_tail(spec: ModelSpec, frame: EvaluationFrame, a: float, t: float, *,
               n: int | None = None, rel_tol: float = DEFAULT_REL_TOL) -> float:
    """P(S_t >= a t): ``tail_curve`` at the one horizon t."""
    return tail_curve(spec, frame, a, (t,), n=n, rel_tol=rel_tol).prob[0]


def tail_curve(spec: ModelSpec, frame: EvaluationFrame, a: float, t_list, *,
               n: int | None = None, rel_tol: float = DEFAULT_REL_TOL) -> TailCurve:
    """P(S_t >= a t) and its normalized value over a time grid by saddle-line
    inversion with weight 1/z, stable to ``rel_tol`` in (0, 1); transform
    data are shared across times."""
    rp, ops, ts = _inversion_setup(spec, a, t_list, n, rel_tol)
    lattice = ops.is_chain and ops.lattice() is not None
    if lattice:
        _check_lattice_pole_reachable(rp, ops.lattice()[0], rel_tol)
    else:
        for t in ts:
            _check_pole_reachable(rp, t, rel_tol)
    normalized = [_lattice_tail(ops, frame, rp, t, rel_tol) if lattice
                  else _saddle_integral(ops, frame, rp, t, lambda z: 1.0 / z, rel_tol)
                  for t in ts]
    probs = [q * float(np.exp(-rp.rate * t)) for q, t in zip(normalized, ts)]
    return TailCurve(a=float(a), t=tuple(float(t) for t in ts), prob=tuple(probs),
                     normalized=tuple(normalized))


def _saddle_width(rp: RatePoint, t) -> float:
    """Width 1/sqrt(t mu'') of the Gaussian saddle of the normalized transform."""
    return 1.0 / np.sqrt(max(float(t) * (1.0 / rp.curvature), 1e-12))


def _trapezoid_step(width: float, rel_tol: float) -> float:
    """Largest power-of-two trapezoid step whose error on the Gaussian saddle
    of width w = ``width`` is below rel_tol / 100 of the value.

    The Gaussian is entire and grows by e^{d^2/2w^2} off the line, so in the
    strip |Im s| < d the trapezoid error relative to the value is about
    2 e^{d^2/2w^2 - 2 pi d/h}  (Trefethen & Weideman, SIAM Rev. 56 (2014)),
    least at d = 2 pi w^2/h where it is 2 e^{-2 pi^2 w^2/h^2}.  That gives
    h = pi w sqrt(2/L) with L = ln(200/rel_tol), about w at rel_tol 1e-6.
    The pole of 1/(theta+is) cuts the strip at d = theta; where that binds
    (theta < w sqrt(2L): short horizons, levels near the mean) the halving
    rounds reach the finer step.  Powers of two nest the lattices of all
    rounds and horizons, so a start coarser than needed costs no transform
    evaluation."""
    log_target = np.log(200.0 / rel_tol)
    return float(2.0 ** np.floor(np.log2(np.pi * width * np.sqrt(2.0 / log_target))))


def _check_pole_reachable(rp: RatePoint, t, rel_tol):
    """Refuse a level whose pole the halving cannot reach.  The pole of
    1/(theta+is) leaves a trapezoid error of about e^{-2 pi theta/h}, so the
    step must come down to about 2 pi theta / ln(200/rel_tol); near the mean
    slope that is below the finest step MAX_ROUNDS rounds reach."""
    needed = 2.0 * np.pi * rp.theta / np.log(200.0 / rel_tol)
    finest = _trapezoid_step(_saddle_width(rp, t), rel_tol) * 2.0 ** (1 - MAX_ROUNDS)
    if needed < finest:
        raise ConvergenceError(
            f"theta_a={rp.theta:.3g} is too close to the mean slope: the pole of 1/z needs "
            f"a trapezoid step near {needed:.3g}, below the finest step {finest:.3g} that "
            f"{MAX_ROUNDS} rounds reach at t={t:g}")


def _check_lattice_pole_reachable(rp: RatePoint, span: float, rel_tol):
    """The lattice counterpart of ``_check_pole_reachable``.  The kernel
    1/(1 - e^{-z span}) has its pole at distance theta from the line, so the
    m-point trapezoid over the period 2 pi / span errs by about
    e^{-m theta span} and needs m near ln(200/rel_tol) / (theta span); refuse
    a level that needs more points than the last of MAX_ROUNDS rounds has."""
    log_target = np.log(200.0 / rel_tol)
    finest = LATTICE_POINTS * 2 ** (MAX_ROUNDS - 1)
    if not rp.theta * span * finest >= log_target:
        raise ConvergenceError(
            f"theta_a={rp.theta:.3g} is too close to the mean slope: the pole of the "
            f"lattice kernel needs about {log_target / (rp.theta * span):.3g} points per "
            f"period, more than the {finest} that {MAX_ROUNDS} rounds reach")


def _settle(estimates, rel_tol, what: str) -> float:
    """The round loop of both inversions: the first of ``estimates`` (one per
    round, each finer than the last) that agrees with its predecessor to
    rel_tol, which must be positive.  ConvergenceError after MAX_ROUNDS."""
    prev = None
    for _, value in zip(range(MAX_ROUNDS), estimates):
        if prev is not None and abs(value - prev) <= rel_tol * max(abs(value), 1e-300):
            if value <= 0.0:
                raise ConvergenceError(f"{what} produced a nonpositive value {value:.3e}")
            return float(value)
        prev = value
    raise ConvergenceError(
        f"{what} did not stabilize to {rel_tol:g} in {MAX_ROUNDS} rounds; "
        "inspect decay_profile for this model")


def _saddle_integral(ops, frame, rp: RatePoint, t, weight, rel_tol) -> float:
    """(1/2 pi) int N(s) e^{-i s a t} weight(theta + i s) ds with N the
    normalized transform; returns e^{I t} times the target expectation: the
    tail for weight 1/z, E f(S_t - a t) for the window transform f.laplace.

    The trapezoid rule starts at ``_trapezoid_step`` and is halved until two
    rounds agree to rel_tol (``_settle``), the span doubling within each
    round until the last node is below rel_tol/1000 of the largest.  Where
    the Gaussian sets the step, the first round already meets rel_tol/100
    and the second confirms it.  Every round truncates at the last node of
    its lattice that does not pass the span, so coarser lattices nest in
    finer ones."""
    theta, a = rp.theta, rp.a
    mu_theta = ops.mu(theta)
    width = _saddle_width(rp, t)

    # one-eigenpair continuation is ~10x cheaper per tilt than the full
    # decomposition; certify its remainder against the full transform first
    use_top = (not ops.is_chain) and ops.certify_top_mode(
        theta, t, frame, 0.02 * rel_tol, (0.0, 4.0 * width, 8.0 * width))
    # otherwise diffusion nodes take the full transform by banded Krylov,
    # settled relative to its value at s = 0
    krylov = not (use_top or ops.is_chain)
    peak = 0.0
    cache: dict[float, complex] = {}

    def normalized(z: complex) -> complex:
        if use_top:
            top = ops.nmgf_top(z, t, frame, mu_theta)
            if top is not None:
                return top
        elif krylov:
            nm = ops.nmgf_krylov(z, t, frame, mu_theta, 1e-3 * rel_tol, peak)
            if nm is not None:
                return nm
            ops.quadrature_fallbacks += 1
        return ops.nmgf(z, t, frame, mu_theta)

    def F(s: float) -> complex:
        val = cache.get(s)
        if val is None:
            z = complex(theta, s)
            val = normalized(z) * np.exp(-1j * s * a * t) * weight(z)
            cache[s] = val
        return val

    if krylov:
        peak = abs(F(0.0) / weight(complex(theta, 0.0)))

    def quadrature(h: float, S: float) -> tuple[float, float, float]:
        ks = range(int(S / h) + 1)
        vals = [F(k * h) for k in ks]
        total = (h / (2.0 * np.pi)) * (vals[0].real + 2.0 * sum(v.real for v in vals[1:]))
        mags = [abs(v) for v in vals]
        return total, max(mags), mags[-1]

    def rounds():
        h, S = _trapezoid_step(width, rel_tol), 8.0 * width
        while True:
            for _ in range(48):
                Q, fmax, fboundary = quadrature(h, S)
                if fboundary <= 1e-3 * rel_tol * fmax or S > 1e6:
                    break
                S *= 2.0
            if S > 1e6:
                raise ConvergenceError(
                    "saddle-line integrand does not decay; inspect decay_profile for this model")
            yield Q
            h *= 0.5

    return _settle(rounds(), rel_tol, "saddle-line inversion")


def _lattice_tail(ops, frame, rp: RatePoint, n_steps: int, rel_tol) -> float:
    """One-period inversion for lattice-valued chains: the indicator transform
    is the lattice sum e^{-z m*}/(1 - e^{-z span});  the target level is the
    smallest lattice point >= a n.  Each round doubles the point count."""
    span, base = ops.lattice()
    theta, a = rp.theta, rp.a
    mu_theta = ops.mu(theta)
    y = a * n_steps
    offset = base * n_steps
    j = np.ceil((y - offset) / span - 1e-9)
    m_star = offset + span * j
    pref = float(np.exp(-theta * (m_star - y)))
    period = 2.0 * np.pi / span
    cache: dict[float, complex] = {}

    def F(s: float) -> complex:
        val = cache.get(s)
        if val is None:
            z = complex(theta, s)
            nm = ops.nmgf(z, n_steps, frame, mu_theta)
            val = nm * np.exp(-1j * s * m_star) / (1.0 - np.exp(-z * span))
            cache[s] = val
        return val

    def rounds():
        m = LATTICE_POINTS
        while True:
            step = period / m
            yield float(np.mean([F(-np.pi / span + k * step).real for k in range(m)]))
            m *= 2

    return pref * _settle(rounds(), rel_tol, "lattice inversion")


# ---------------------------------------------------------------------------
# Expansion coefficients.

def leading_coefficient(spec: ModelSpec, frame: EvaluationFrame, a: float, *,
                        n: int | None = None) -> float:
    """Analytic leading coefficient of the normalized tail:

        D_0 = ell(Pi_theta v) sqrt(I''(a)) / (theta_a sqrt(2 pi)),

    with ell(Pi v) = g(x0) <psi, v> under the pairing normalization."""
    rp = rate_point(spec, a, n=n)
    if rp.theta <= 0.0:
        raise AdmissibleRangeError(f"positive tilt required, got theta_a={rp.theta:.6g}")
    if rp.theta < BOUNDARY_THETA:
        warnings.warn(
            f"theta_a={rp.theta:.3g} is near the admissible boundary; the leading "
            "coefficient diverges as a approaches the mean slope", stacklevel=2)
    ops = operators_for(spec, n)
    _, g, psi = ops.perron(rp.theta)
    ell_pi_v = float(frame.ell_pi_v(g, psi, ops.weight))
    _warn_if_nonreversible(ops, frame, g, psi, ell_pi_v)
    return ell_pi_v * np.sqrt(rp.curvature) / (rp.theta * np.sqrt(2.0 * np.pi))


def _warn_if_nonreversible(ops, frame, g, psi, ell_pi_v):
    """The reversible-case shortcut g(x0) int g presumes psi proportional to
    g; flag models where that reading would disagree."""
    denom = float(np.sum(g * g) * ops.weight)
    psi_selfadjoint = g / denom
    rel = float(np.max(np.abs(psi_selfadjoint - psi)) / max(np.max(np.abs(psi)), 1e-300))
    if rel > 1e-6:
        alt = float(frame.ell_pi_v(g, psi_selfadjoint, ops.weight))
        warnings.warn(
            "non-self-adjoint tilted operator: ell(Pi v) uses the left eigenvector "
            f"({ell_pi_v:.9g}); the reversible-case shortcut would give {alt:.9g}",
            stacklevel=3)


def extract_coefficients(spec: ModelSpec, frame: EvaluationFrame, a: float,
                         t_list, order: int = 4, *, n: int | None = None,
                         rel_tol: float = DEFAULT_REL_TOL,
                         curve: TailCurve | None = None,
                         residual_tol: float = 0.05,
                         check_leading: bool = True) -> CoeffFit:
    """Weighted least squares of the normalized tail against t^{-(k+1/2)}.

    Weights are proportional to t^{(order+1)/2} so the truncation remainder is
    equalized across samples.  The fitted D_0 must agree with the analytic
    leading coefficient within one percent.
    """
    n_coeff = order // 2 + 1
    t_arr = (np.asarray(curve.t) if curve is not None
             else np.asarray(sorted(float(t) for t in t_list), dtype=float))
    if t_arr.size < n_coeff + 2:
        raise FitError(f"need at least {n_coeff + 2} time samples for order {order}, got {t_arr.size}")
    if t_arr[-1] < 8.0 * t_arr[0]:
        raise FitError(
            f"time grid must span at least a factor 8 (got {t_arr[-1] / t_arr[0]:.3g}); widen the span")
    if curve is None:
        curve = tail_curve(spec, frame, a, t_arr, n=n, rel_tol=rel_tol)
    y = np.asarray(curve.normalized)
    basis = np.column_stack([t_arr ** -(k + 0.5) for k in range(n_coeff)])
    wts = t_arr ** ((order + 1) / 2.0)
    design = basis * wts[:, None]
    target = y * wts
    cond = float(np.linalg.cond(design))
    if cond > FIT_CONDITION_CAP:
        raise FitError(f"fit condition number {cond:.3e} exceeds {FIT_CONDITION_CAP:.0e}; "
                       "widen the time span")
    coeffs, *_ = np.linalg.lstsq(design, target, rcond=None)
    resid = float(np.linalg.norm(design @ coeffs - target) / np.linalg.norm(target))
    if resid > residual_tol:
        raise FitError(f"fit residual {resid:.3e} exceeds tolerance {residual_tol:g}")
    fit = CoeffFit(a=float(a), order=int(order), coefficients=tuple(float(c) for c in coeffs),
                   residual=resid, condition=cond)
    if fit.d0 <= 0.0:
        raise FitError(f"fitted leading coefficient {fit.d0:.3e} is not positive")
    if check_leading:
        d0_analytic = leading_coefficient(spec, frame, a, n=n)
        rel = abs(fit.d0 - d0_analytic) / abs(d0_analytic)
        if rel > 0.01:
            raise FitError(
                f"fitted D_0={fit.d0:.9g} disagrees with analytic {d0_analytic:.9g} "
                f"by {100 * rel:.2f}% (> 1%) on t in [{t_arr[0]:g}, {t_arr[-1]:g}]; the "
                "correction terms may not have decayed yet: try longer horizons "
                "(--t-min/--t-max, or t_grid in the config)")
    return fit


def weak_expectation(spec: ModelSpec, frame: EvaluationFrame, f: TestFunction,
                     a: float, t: float, *, n: int | None = None,
                     rel_tol: float = DEFAULT_REL_TOL) -> float:
    """e^{I(a) t} E[f(S_t - a t)] by the saddle-line inversion with the
    window transform f.laplace as the weight."""
    rp, ops, (t,) = _inversion_setup(spec, a, (t,), n, rel_tol)
    if f.amplitude == 0.0:
        return 0.0
    f.require_admissible(rp.theta)
    return _saddle_integral(ops, frame, rp, t, f.laplace, rel_tol)
