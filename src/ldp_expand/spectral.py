"""Tilted spectra: cumulant curve mu(theta), eigenfunctions, spectral gaps,
the Taylor coefficients of mu at every order from one Rayleigh-Schroedinger
recursion (``_taylor``; its order-1 and order-2 readings give the exact
cumulant derivatives and the corrector, with finite differences and the
effective diffusivity kept as cross-checks), and the complex-tilt
diagnostics used by the condition suite.

Notation: G(theta) is the tilted generator, mu(theta) its rightmost
eigenvalue (the log of the time-1 Perron eigenvalue), g/psi the right/left
eigenvectors normalized by sup-norm one and bilinear pairing one, and
Pi = g (x) psi the rank-one spectral projector.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from ._eigen import spectrum
from .discretize import CyclicTridiagonal, lattice_span, operators_for
from .errors import ConvergenceError, DegenerateSpectrumError, SolvabilityError
from .fields import periodic_slope
from .model import ModelSpec

# step of the finite-difference cross-check of mu' and mu'', one Richardson level
FD_STEP = 1e-3
# exact derivatives and their cross-checks must agree this tightly
CROSSCHECK_RTOL = 5e-3
# smallest per-step norm decay 1 - max ratio that certifies the decay condition
DECAY_EPS_FLOOR = 1e-9
# relative slack of a bound rate below the largest dense rate; covers the
# rounding of the dense exponentials
DECAY_BOUND_SLACK = 1e-9


def _gap_mu_scale(ops, ed) -> float:
    """The top gap of ``ops.eigendata`` on the cumulant scale of mu: the
    generator gap itself on a diffusion, log |lambda_1| - log |lambda_2| per
    step on a chain."""
    if not ops.is_chain:
        return ed.gap
    lam = abs(ed.value)
    rest = lam - ed.gap
    if rest <= 0.0:
        return np.inf
    return float(np.log(lam) - np.log(rest))


def cgf(spec: ModelSpec, theta: float, *, n: int | None = None) -> float:
    """Cumulant generating function mu(theta) = log lambda(theta, 1)."""
    return operators_for(spec, n).mu(float(theta))


def cgf_fd_derivatives(spec: ModelSpec, theta: float, *, n: int | None = None,
                       h: float = FD_STEP) -> tuple[float, float]:
    """Richardson-extrapolated central differences of the cumulant curve;
    an independent cross-check of the exact values."""
    ops = operators_for(spec, n)
    m2, m1, m0, p1, p2 = (ops.mu(theta + k * h) for k in (-2, -1, 0, 1, 2))
    d1 = (8.0 * (p1 - m1) - (p2 - m2)) / (12.0 * h)
    d2 = (-p2 + 16.0 * p1 - 30.0 * m0 + 16.0 * m1 - m2) / (12.0 * h * h)
    return d1, d2


def cgf_derivatives(spec: ModelSpec, theta: float, *, n: int | None = None) -> tuple[float, float]:
    """(mu'(theta), mu''(theta)), exact from eigenvalue perturbation.

    Cross-checked against the finite differences of ``cgf_fd_derivatives``
    and, on diffusions, against the effective diffusivity Xi(theta); raises
    ConvergenceError when either disagrees beyond CROSSCHECK_RTOL (0.5
    percent), which flags a discretization or corrector failure.
    """
    fd1, fd2 = cgf_fd_derivatives(spec, theta, n=n)
    ops = operators_for(spec, n)
    d1, d2, gdot = _perturbation(ops, theta)
    if abs(fd1 - d1) > CROSSCHECK_RTOL * max(abs(fd1), abs(fd2), 1e-8):
        raise ConvergenceError(
            f"mu'({theta}) mismatch: finite differences {fd1:.10g} vs perturbation {d1:.10g}")
    if abs(fd2 - d2) / max(abs(fd2), 1e-12) > CROSSCHECK_RTOL:
        raise ConvergenceError(
            f"mu''({theta}) mismatch: finite differences {fd2:.10g} vs perturbation {d2:.10g}")
    if not ops.is_chain:
        xi = _diffusivity(ops, float(theta), _corrector(ops, float(theta), d1, gdot)[0])
        if abs(xi - d2) > CROSSCHECK_RTOL * abs(d2):
            raise ConvergenceError(
                f"mu''({theta}) mismatch: perturbation {d2:.10g} vs "
                f"effective diffusivity {xi:.10g}")
    return d1, d2


# ---------------------------------------------------------------------------
# Eigenvalue perturbation and the corrector.

def _taylor(ops, theta: float, order: int) -> tuple[tuple[float, ...], list[np.ndarray]]:
    """Taylor coefficients (c_0, ..., c_order) of mu(theta + w) and the right
    vectors g_0, ..., g_{order-1} of M(theta + w) = sum_j M_j w^j, by the
    Rayleigh-Schroedinger recursion on the Perron triple (lambda_0, g_0, psi)
    of M_0 (Kato, Perturbation Theory for Linear Operators, ch. II): with
    <psi, g_0> = 1 and <psi, g_k> = 0 for k >= 1,

        lambda_k = <psi, sum_{j=1..k} M_j g_{k-j}>,
        (M_0 - lambda_0) g_k = sum_{j=1..k} (lambda_j - M_j) g_{k-j}.

    M is the tilted generator (mu = lambda) or a chain's time-1 transfer
    matrix (mu = log lambda, by series); ``ops._taylor_terms`` supplies M_0
    and the actions of the M_j.  One factor of M_0 - lambda_0, pinned at the
    largest entry of psi g_0, solves every order: a psi-orthogonal
    right-hand side keeps the pinned entry zero.  Order 1 takes no solve."""
    value, g, psi = ops.perron(float(theta))
    op, terms = ops._taylor_terms(float(theta), order)

    def pair(u):
        return float(np.sum(psi * u) * ops.weight)

    lam, gs = [value], [g]
    for k in range(1, order + 1):
        mg = sum(M(gs[k - j]) for j, M in enumerate(terms[:k], 1))
        lam.append(pair(mg))
        if k < order:
            if k == 1:
                pin = np.zeros(g.size)
                pin[int(np.argmax(psi * g))] = op.scale
                solve = op.shifted_diagonal(pin).shifted_solver(value)
            h = solve(sum(lam[j] * gs[k - j] for j in range(1, k + 1)) - mg)
            gs.append(h - pair(h) * g)
    if ops.is_chain:
        # log of lambda_0 (1 + sum_k a_k w^k): k c_k = k a_k - sum_{j<k} j c_j a_{k-j}
        a = [x / value for x in lam]
        lam = [float(np.log(value))]
        for k in range(1, order + 1):
            lam.append(a[k] - sum(j * lam[j] * a[k - j] for j in range(1, k)) / k)
    return tuple(lam), gs


def _perturbation(ops, theta: float):
    """(mu'(theta), mu''(theta), gdot): the order-2 reading of ``_taylor``,
    with gdot = g_1 from its one solve."""
    c, g = _taylor(ops, theta, 2)
    return c[1], 2.0 * c[2], g[1]


def spectral_mu_prime(ops, theta: float) -> float:
    """mu'(theta): the order-1 reading of ``_taylor``, with no solve."""
    return _taylor(ops, theta, 1)[0][1]


def solve_corrector(ops, theta: float) -> tuple[np.ndarray, float, float]:
    """Solve A~ f = c_theta - (b + theta sigma^2) on the grid.

    Returns (f, c_theta, residual).  A~ is the generator of the tilted torus
    process, the conjugation (1/g)(G - mu)(g .) whose continuum form is
    A + (V V^T)(grad log g) grad.  The perturbation equation
    (G - mu) gdot = (mu' - b - theta sigma^2) g is this problem for
    f = gdot / g and c_theta = mu', with zero mean under pi = psi g.
    """
    theta = float(theta)
    c_theta, _, gdot = _perturbation(ops, theta)
    return _corrector(ops, theta, c_theta, gdot)


def _corrector(ops, theta: float, c_theta: float, gdot: np.ndarray):
    """``solve_corrector`` from the perturbation's (mu', gdot) at theta."""
    mu, g, psi = ops.perron(theta)
    pi = psi * g * ops.weight
    drift = ops.b + theta * ops.sigma2
    rhs = c_theta - drift
    ortho = float(np.sum(rhs * pi))
    if abs(ortho) > 1e-10 * max(1.0, float(np.max(np.abs(drift)))):
        raise SolvabilityError(f"corrector right-hand side not orthogonal to pi ({ortho:.3e})")
    residual = float(np.max(np.abs((ops.operator(theta).matvec(gdot) - mu * gdot) / g - rhs)))
    if residual > max(1e-8, 1e-8 * float(np.max(np.abs(rhs)))):
        raise SolvabilityError(f"corrector Poisson solve residual {residual:.3e} exceeds 1e-8")
    return gdot / g, c_theta, residual


def effective_diffusivity_core(ops, theta: float) -> tuple[float, np.ndarray, float, float]:
    """Xi(theta) = integral of |V grad f|^2 + sigma^2 against psi g, with f
    the corrector; equals mu''(theta) up to discretization error.  Returns
    (xi, f, c_theta, residual)."""
    f, c_theta, residual = solve_corrector(ops, theta)
    return _diffusivity(ops, float(theta), f), f, c_theta, residual


def _diffusivity(ops, theta: float, f: np.ndarray) -> float:
    """Xi(theta) from the corrector f."""
    _, g, psi = ops.perron(theta)
    pi = psi * g * ops.weight
    return float(np.sum((ops.vv * periodic_slope(f)**2 + ops.sigma2) * pi))


# ---------------------------------------------------------------------------
# Complex-tilt diagnostics.

def b3_margins(ops, theta: float, s_list) -> list[tuple[float, float]]:
    """Complex-tilt gap condition, measured: for each s != 0 the margin
    mu(theta) - max Re spec(G(theta + i s)) (diffusions) or the log-modulus
    margin (chains); positive values satisfy the condition.  Margins are
    measured against the spectral envelope, one dense spectrum per tilt (on
    a diffusion the real tilt's is the centre's); defined through the
    spectral bound (not the Perron pair), so degenerate negative controls
    still produce reportable numbers.  The condition suite certifies
    diffusion margins by ``b3_certificate`` instead."""
    theta = float(theta)
    ref = spectral_envelope(ops, theta)
    out = []
    for s in s_list:
        s = float(s)
        if s == 0.0:
            raise ValueError("the complex-tilt gap condition is defined for s != 0 only")
        out.append((s, ref - spectral_envelope(ops, complex(theta, s))))
    return out


def b3_certificate(ops, theta: float) -> float | None:
    """c with mu(theta) - max Re spec G(theta + i s) >= c s^2 for every real s,
    certified on a diffusion from the Perron triple (mu, g, psi) at theta:
    c = min(sigma^2) / 2.  None for chains, and when the stencil has an
    off-diagonal entry that is not strictly positive or the cached pair
    ``ops.eigendata(theta)`` is not strictly positive.

    A~ = g^{-1} (G(theta) - mu) g then has nonnegative off-diagonal entries,
    zero row sums and the invariant vector pi = psi g > 0: it is the twisted
    kernel of Kontoyiannis & Meyn, Ann. Appl. Probab. 13 (2003).  By
    similarity G(theta + i s) - mu = g [A~ + i s diag(b + theta sigma^2)
    - s^2 diag(sigma^2) / 2] g^{-1}.  In l^2(pi),
    Re <u, A~ u> = -(1/2) sum_ij pi_i A~_ij |u_i - u_j|^2 <= 0 and the
    i s term is skew, so the numerical range, and with it the spectrum,
    lies in Re <= -s^2 min(sigma^2) / 2."""
    if ops.is_chain or not (np.all(ops.stencil.lo > 0.0) and np.all(ops.stencil.up > 0.0)):
        return None
    try:
        ed = ops.eigendata(float(theta))
    except DegenerateSpectrumError:
        return None
    if not (np.all(ed.g > 0.0) and np.all(ed.psi > 0.0)):
        return None
    return 0.5 * float(np.min(ops.sigma2))


def spectral_envelope(ops, z: complex) -> float:
    """Top of the whole spectrum on the cumulant scale: the largest real
    part (generators) or the log spectral radius (chains).  A diffusion
    serves a real tilt from its workspace (``DiffusionOperators.envelope``)."""
    if isinstance(z, float) and not ops.is_chain:
        return ops.envelope(z)
    w = spectrum(ops.tilted(z))
    return float(np.log(np.max(np.abs(w)))) if ops.is_chain else float(np.max(w.real))


@dataclass(frozen=True)
class DecayProfile:
    """Measured norm decay of the complex-tilted semigroup.

    ``samples`` holds (s, t, ratio) with ratio = ||exp(t G(theta+is))|| /
    exp(t mu(theta)) in the induced max-row-sum norm;  the fitted constants
    satisfy ratio <= (1 - epsilon)^floor(t) for every sample with |s| >= K.
    """

    theta: float
    samples: tuple[tuple[float, float, float], ...]
    K: float
    epsilon: float


def decay_profile(spec: ModelSpec, theta: float, s_grid, t_grid, *,
                  n: int | None = None) -> DecayProfile:
    """Sample semigroup norm ratios over (s, t) and fit (K, epsilon).

    This measures: one dense exponential per s.  The condition suite
    certifies instead (``verify._check_decay``), taking on a diffusion only
    the s of smallest modulus densely and bounding the others by
    ``semigroup_norm_bound``."""
    s_grid, t_grid = list(s_grid), [float(t) for t in t_grid]
    if not s_grid or not t_grid:
        raise ValueError("decay profile needs nonempty s and t grids")
    ops = operators_for(spec, n)
    theta = float(theta)
    samples = _decay_samples(ops, theta, sorted(float(s) for s in s_grid), t_grid, ops.mu(theta))
    K, eps = _decay_constants(samples)
    return DecayProfile(theta=theta, samples=tuple(samples), K=K, epsilon=eps)


def _decay_samples(ops, theta: float, s_list, t_list, mu: float) -> list[tuple[float, float, float]]:
    """(s, t, ratio) for every s in s_list and t in t_list, ratio the
    max-row-sum norm of the normalized semigroup at theta + i s: one
    ``_semigroup`` call per s."""
    out = []
    for s in s_list:
        mats = _semigroup(ops, complex(theta, s), t_list, mu)
        out += [(s, t, _rowsum_norm(mats[t])) for t in t_list]
    return out


def _decay_rate(t: float, ratio: float) -> float:
    """Per-step rate ratio^(1 / max(1, floor t)) of one norm sample."""
    return ratio ** (1.0 / max(1, int(np.floor(t))))


def _decay_constants(samples) -> tuple[float, float]:
    """(K, epsilon) of ``_fit_decay``; ConvergenceError when no K certifies."""
    K, eps = _fit_decay(samples)
    if eps is None:
        raise ConvergenceError(
            "no epsilon > 0 certifies geometric norm decay; the model numerically "
            "violates the complex-tilt decay condition")
    return K, eps


def semigroup_norm_bound(ops, theta: float, z: complex) -> tuple[float, float] | None:
    """(kappa, rho) with ||exp(t (G(z) - mu(theta)))|| <= kappa e^{t rho} for
    every t >= 0 in the max-row-sum norm, from the cached Perron pair (mu, g)
    at theta in O(n); None for chains and when g is not strictly positive.

    With D = diag(g) and A = G(z) - mu, ||e^{tA}|| = ||D e^{t D^-1 A D}
    D^-1|| <= kappa ||e^{t D^-1 A D}||, kappa = max g / min g, and the
    l-infinity logarithmic norm bounds the last factor by e^{t rho}
    (Soderlind, BIT 46 (2006)):

        rho = max_i [Re diag_i - mu + (|lo_i| g_{i-1} + |up_i| g_{i+1}) / g_i].

    This holds for any complex z and any positive g.  With the Perron g,
    D^-1 (G(theta) - mu) D is the twisted kernel of ``b3_certificate`` (zero
    row sums), so rho(s) = -(1/2) s^2 min sigma^2 up to rounding."""
    if ops.is_chain:
        return None
    mu, g, _ = ops.perron(float(theta))
    if not np.all(g > 0.0):
        return None
    op = ops.operator(z)
    row = CyclicTridiagonal(lo=np.abs(op.lo), diag=np.real(op.diag), up=np.abs(op.up)).matvec(g)
    return float(np.max(g) / np.min(g)), float(np.max(row / g - mu))


def _certified_decay(ops, theta: float, s_decay, t_decay) -> tuple[float, float, int]:
    """(K, epsilon, number of certified s) of the D1-2 fit at theta.

    The s of smallest modulus are sampled densely; let top be their largest
    per-step rate.  When 1 - top > DECAY_EPS_FLOOR, every other s whose
    ``semigroup_norm_bound`` rate, raised by DECAY_BOUND_SLACK, stays below
    top at every t is certified and not sampled; the rest are sampled
    densely.  A certified sample lies below top, so it cannot raise the
    maximum, and the fit returns the K (the smallest |s|) and the epsilon
    of the all-dense samples bit for bit.  Should a dense sample push the
    fit past that K, the certified s are sampled too.  Chains, and a
    Perron vector that is not strictly positive, sample every s."""
    theta = float(theta)
    mu = ops.mu(theta)
    s_min = min(abs(s) for s in s_decay)
    samples = _decay_samples(ops, theta, [s for s in s_decay if abs(s) == s_min], t_decay, mu)
    top = max(_decay_rate(t, r) for _, t, r in samples)
    rest = sorted(s for s in s_decay if abs(s) != s_min)
    certified = []
    if 1.0 - top > DECAY_EPS_FLOOR:
        certified = [s for s in rest if _bounded_below(ops, theta, s, t_decay, top)]
    samples += _decay_samples(ops, theta, [s for s in rest if s not in certified], t_decay, mu)
    if certified and 1.0 - max(_decay_rate(t, r) for _, t, r in samples) <= DECAY_EPS_FLOOR:
        samples += _decay_samples(ops, theta, certified, t_decay, mu)
        certified = []
    K, eps = _decay_constants(samples)
    return K, eps, len(certified)


def _bounded_below(ops, theta: float, s: float, t_decay, top: float) -> bool:
    """Whether the bound rate (kappa e^{t rho})^(1/max(1, floor t)), raised
    by DECAY_BOUND_SLACK, is below top at every t."""
    bound = semigroup_norm_bound(ops, theta, complex(theta, s))
    if bound is None:
        return False
    kappa, rho = bound
    return all(_decay_rate(t, kappa * np.exp(t * rho)) * (1.0 + DECAY_BOUND_SLACK) < top
               for t in t_decay)


# Most products of one exponential that replace a direct exponential per time.
MAX_SEMIGROUP_STEPS = 8


def _semigroup(ops, z: complex, ts, mu_ref: float) -> dict[float, np.ndarray]:
    """{t: normalized semigroup matrix} for every t in ts: exp(t (G(z) -
    mu_ref)) for diffusions, (T(z) e^{-mu_ref})^t for chains.

    On a diffusion the matrix is real when z is.  When the times share a
    step h (``lattice_span``) with t / h <= MAX_SEMIGROUP_STEPS, one
    scaling-and-squaring exponential E = exp(h (G - mu_ref)) serves them all
    and exp(t (G - mu_ref)) = E^{t/h} comes from successive products along
    the sorted times, as accurate as a direct exponential (Higham, SIAM J.
    Matrix Anal. Appl. 26 (2005)); otherwise each t takes its own."""
    ts = sorted({float(t) for t in ts})
    if ops.is_chain:
        T = ops.tilted(z) * np.exp(-mu_ref)
        return {t: np.linalg.matrix_power(T, ops.steps(t)) for t in ts}
    z = complex(z)
    A = ops.tilted(z.real if z.imag == 0.0 else z)
    idx = np.arange(A.shape[0])
    A[idx, idx] -= mu_ref
    h = lattice_span(ts, 0.0)
    steps = [round(t / h) for t in ts] if h > 0.0 else []
    if (not steps or steps[0] < 0 or steps[-1] > MAX_SEMIGROUP_STEPS
            or any(abs(k * h - t) > 1e-12 * abs(t) for k, t in zip(steps, ts))):
        return {t: sla.expm(t * A) for t in ts}
    E = sla.expm(h * A)
    out, M, k = {}, np.eye(A.shape[0], dtype=A.dtype), 0
    for t, kt in zip(ts, steps):
        while k < kt:
            M = M @ E if k else E
            k += 1
        out[t] = M
    return out


def _fit_decay(samples):
    svals = sorted({abs(s) for s, _, _ in samples})
    for K in svals:
        rates = [_decay_rate(t, r) for s, t, r in samples if abs(s) >= K]
        if not rates:
            continue
        eps = 1.0 - max(rates)
        if eps > DECAY_EPS_FLOOR:
            return K, eps
    return (svals[-1] if svals else 0.0), None


def _rowsum_norm(M: np.ndarray) -> float:
    """Induced max-row-sum norm, the package's operator-norm proxy."""
    return float(np.max(np.sum(np.abs(M), axis=1)))


def convexity_profile(spec: ModelSpec, theta_grid, *, n: int | None = None) -> list[tuple[float, float]]:
    """Second divided differences of the cumulant curve over consecutive
    theta triples; all must be positive under the convexity condition."""
    ops = operators_for(spec, n)
    thetas = sorted(float(t) for t in theta_grid)
    return second_divided_differences(thetas, [ops.mu(t) for t in thetas])


def second_divided_differences(thetas, values) -> list[tuple[float, float]]:
    """(t_i, 2 f[t_{i-1}, t_i, t_{i+1}]) at each interior t_i, in the order
    given: twice the second divided difference, an estimate of f''."""
    out = []
    for i in range(1, len(thetas) - 1):
        t0, t1, t2 = thetas[i - 1], thetas[i], thetas[i + 1]
        dd = 2.0 * ((values[i + 1] - values[i]) / (t2 - t1)
                    - (values[i] - values[i - 1]) / (t1 - t0)) / (t2 - t0)
        out.append((t1, dd))
    return out
