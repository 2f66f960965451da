"""Tilted spectra: cumulant curve mu(theta), eigenfunctions, spectral gaps,
exact cumulant derivatives and the corrector from one eigenvalue
perturbation routine (finite differences and the effective diffusivity kept
as cross-checks), and the complex-tilt diagnostics used by the condition
suite.

Notation: G(theta) is the tilted generator, mu(theta) its rightmost
eigenvalue (the log of the time-1 Perron eigenvalue), g/psi the right/left
eigenvectors normalized by sup-norm one and bilinear pairing one, and
Pi = g (x) psi the rank-one spectral projector.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from ._eigen import spectrum, top_eigen_data
from .discretize import GeneratorMatrix, lattice_span, operators_for
from .errors import ConvergenceError, SolvabilityError
from .fields import periodic_slope
from .model import ModelSpec

# step of the finite-difference cross-check of mu' and mu'', one Richardson level
FD_STEP = 1e-3
# exact derivatives and their cross-checks must agree this tightly
CROSSCHECK_RTOL = 5e-3
# smallest per-step norm decay 1 - max ratio that certifies the decay condition
DECAY_EPS_FLOOR = 1e-9


@dataclass(frozen=True)
class SpectralTriple:
    """(mu, g, psi, gap) of a tilted operator at one tilt.

    ``mu`` is on generator scale (log of the time-1 eigenvalue).  ``g`` has
    sup norm 1 and, for real tilts, is positive; ``psi`` satisfies
    sum(psi * g) * weight = 1.  ``gap`` is the distance from the top of the
    spectrum to the rest, in the same per-unit-time scale as mu.
    """

    z: complex
    mu: float | complex
    g: np.ndarray
    psi: np.ndarray
    gap: float
    residual: float
    weight: float

    def projector(self) -> np.ndarray:
        """Rank-one spectral projector g (x) psi (with the pairing weight)."""
        return np.outer(self.g, self.psi) * self.weight


def _triple_from_ops(ops, z: complex) -> SpectralTriple:
    ed = ops.eigendata(z)
    mu = _to_mu(ops, ed.value)
    gap = _gap_mu_scale(ops, ed)
    return SpectralTriple(z=z, mu=mu, g=ed.g, psi=ed.psi, gap=gap,
                          residual=ed.residual, weight=ed.weight)


def _to_mu(ops, value):
    """Matrix-scale top eigenvalue -> per-unit-time cumulant value."""
    if ops.is_chain:
        return np.log(value) if np.iscomplexobj(np.asarray(value)) else float(np.log(value))
    return value


def _gap_mu_scale(ops, ed) -> float:
    if not ops.is_chain:
        return ed.gap
    # chain gap is measured between moduli of time-1 eigenvalues; report per step
    lam = abs(ed.value)
    rest = lam - ed.gap
    if rest <= 0.0:
        return np.inf
    return float(np.log(lam) - np.log(rest))


def top_eigen(G: GeneratorMatrix) -> SpectralTriple:
    """Top eigenpair of a tilted generator matrix.

    For real tilts the Perron pair is positive and mu is real; for complex
    tilts the eigenvalue of maximal real part is returned and simplicity is
    enforced through the configured gap threshold.
    """
    real = np.isrealobj(G.matrix) or abs(complex(G.z).imag) == 0.0
    ed = top_eigen_data(G.matrix, weight=G.grid.dx, sort="real", positive=real)
    return SpectralTriple(z=G.z, mu=ed.value, g=ed.g, psi=ed.psi, gap=ed.gap,
                          residual=ed.residual, weight=ed.weight)


def cgf(spec: ModelSpec, theta: float, *, n: int | None = None) -> float:
    """Cumulant generating function mu(theta) = log lambda(theta, 1)."""
    return operators_for(spec, n).mu(float(theta))


def spectral_triple(spec: ModelSpec, z: complex, *, n: int | None = None) -> SpectralTriple:
    """Cached SpectralTriple of the tilted operator at tilt z."""
    return _triple_from_ops(operators_for(spec, n), z)


@dataclass(frozen=True)
class DerivativeCrossCheck:
    """Finite-difference derivatives next to the exact perturbation values."""

    theta: float
    d1_fd: float
    d2_fd: float
    d1_spectral: float
    d2_spectral: float

    @property
    def d2_rel_err(self) -> float:
        return abs(self.d2_fd - self.d2_spectral) / max(abs(self.d2_fd), 1e-12)


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
    check = cgf_derivative_crosscheck(spec, theta, n=n)
    scale1 = max(abs(check.d1_fd), abs(check.d2_fd), 1e-8)
    if abs(check.d1_fd - check.d1_spectral) > CROSSCHECK_RTOL * scale1:
        raise ConvergenceError(
            f"mu'({theta}) mismatch: finite differences {check.d1_fd:.10g} vs "
            f"perturbation {check.d1_spectral:.10g}")
    if check.d2_rel_err > CROSSCHECK_RTOL:
        raise ConvergenceError(
            f"mu''({theta}) mismatch: finite differences {check.d2_fd:.10g} vs "
            f"perturbation {check.d2_spectral:.10g}")
    ops = operators_for(spec, n)
    if not ops.is_chain:
        xi = effective_diffusivity_core(ops, theta)[0]
        if abs(xi - check.d2_spectral) > CROSSCHECK_RTOL * abs(check.d2_spectral):
            raise ConvergenceError(
                f"mu''({theta}) mismatch: perturbation {check.d2_spectral:.10g} vs "
                f"effective diffusivity {xi:.10g}")
    return check.d1_spectral, check.d2_spectral


def cgf_derivative_crosscheck(spec: ModelSpec, theta: float, *,
                              n: int | None = None) -> DerivativeCrossCheck:
    d1, d2 = cgf_fd_derivatives(spec, theta, n=n)
    s1, s2, _ = _perturbation(operators_for(spec, n), theta)
    return DerivativeCrossCheck(theta=float(theta), d1_fd=d1, d2_fd=d2,
                                d1_spectral=s1, d2_spectral=s2)


# ---------------------------------------------------------------------------
# Eigenvalue perturbation and the corrector.

def _perturbation(ops, theta: float, second: bool = True):
    """(mu'(theta), mu''(theta), gdot) by first- and second-order perturbation
    of the Perron triple (value, g, psi) of M(theta) (Kato, Perturbation
    Theory for Linear Operators, ch. II):

        value'  = <psi, M' g>,
        (M - value) gdot = value' g - M' g   with   <psi, gdot> = 0,
        value'' = <psi, M'' g + 2 M' gdot>.

    M is the tilted generator (mu = value) or a chain's time-1 transfer
    matrix (mu = log value); ``ops._tilt_terms`` supplies M and the actions
    of M' and M''.  A rank-one pin at the largest entry k of psi g keeps
    M - value invertible, and psi-orthogonality of the right-hand side forces
    the solution's k-th entry to vanish, so it solves the singular system.
    ``second=False`` stops after mu' and returns (mu', None, None)."""
    theta = float(theta)
    value, g, psi = ops.perron(theta)
    op, d1M, d2M = ops._tilt_terms(theta)

    def pair(u):
        return float(np.sum(psi * u) * ops.weight)

    M1g = d1M(g)
    v1 = pair(M1g)
    mu1 = v1 / value if ops.is_chain else v1
    if not second:
        return mu1, None, None
    pin = np.zeros(g.size)
    pin[int(np.argmax(psi * g))] = op.scale
    h = op.shifted_diagonal(pin).shifted_solver(value)(v1 * g - M1g)
    gdot = h - pair(h) * g
    v2 = pair(d2M(g) + 2.0 * d1M(gdot))
    mu2 = v2 / value - mu1 * mu1 if ops.is_chain else v2
    return mu1, mu2, gdot


def spectral_mu_prime(ops, theta: float) -> float:
    """mu'(theta): the first-order part of ``_perturbation``, with no solve."""
    return _perturbation(ops, theta, second=False)[0]


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
    _, g, psi = ops.perron(float(theta))
    pi = psi * g * ops.weight
    fprime = periodic_slope(f)
    xi = float(np.sum((ops.vv * fprime**2 + ops.sigma2) * pi))
    return xi, f, c_theta, residual


# ---------------------------------------------------------------------------
# Complex-tilt diagnostics.

def check_b3(spec: ModelSpec, theta: float, s_list, *, n: int | None = None) -> list[tuple[float, float]]:
    """Complex-tilt gap condition: for each s != 0 return
    mu(theta) - max Re spec(G(theta + i s)) (diffusions) or the log-modulus
    margin (chains); positive values certify the condition."""
    return b3_margins(operators_for(spec, n), theta, s_list)


def b3_margins(ops, theta: float, s_list) -> list[tuple[float, float]]:
    """Margins against the spectral envelope; defined through the spectral
    bound (not the Perron pair), so degenerate negative controls still
    produce reportable numbers."""
    theta = float(theta)
    ref = spectral_envelope(ops, theta)
    out = []
    for s in s_list:
        s = float(s)
        if s == 0.0:
            raise ValueError("the complex-tilt gap condition is defined for s != 0 only")
        out.append((s, ref - spectral_envelope(ops, complex(theta, s))))
    return out


def spectral_envelope(ops, z: complex) -> float:
    """Top of the whole spectrum on the cumulant scale: the largest real
    part (generators) or the log spectral radius (chains)."""
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
    """Sample semigroup norm ratios over (s, t) and fit (K, epsilon)."""
    s_grid, t_grid = list(s_grid), [float(t) for t in t_grid]
    if not s_grid or not t_grid:
        raise ValueError("decay profile needs nonempty s and t grids")
    ops = operators_for(spec, n)
    theta = float(theta)
    mu = ops.mu(theta)
    samples = []
    for s in sorted(float(s) for s in s_grid):
        mats = _semigroup(ops, complex(theta, s), t_grid, mu)
        samples += [(s, t, _rowsum_norm(mats[t])) for t in t_grid]
    K, eps = _fit_decay(samples)
    if eps is None:
        raise ConvergenceError(
            "no epsilon > 0 certifies geometric norm decay; the model numerically "
            "violates the complex-tilt decay condition")
    return DecayProfile(theta=theta, samples=tuple(samples), K=K, epsilon=eps)


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
        return {t: np.linalg.matrix_power(T, _chain_steps(t)) for t in ts}
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


def _chain_steps(t: float) -> int:
    steps = int(round(t))
    if abs(t - steps) > 1e-9 or steps < 0:
        raise ValueError(f"chain semigroup times must be nonnegative integers, got {t}")
    return steps


def _fit_decay(samples):
    svals = sorted({abs(s) for s, _, _ in samples})
    for K in svals:
        rates = [r ** (1.0 / max(1, int(np.floor(t))))
                 for s, t, r in samples if abs(s) >= K]
        if not rates:
            continue
        eps = 1.0 - max(rates)
        if eps > DECAY_EPS_FLOOR:
            return K, eps
    return (svals[-1] if svals else 0.0), None


@dataclass(frozen=True)
class DecompositionReport:
    """Consistency of exp(tG) = e^{t mu} Pi + R(t) with a geometrically
    decaying, semigroup-forming remainder.  All norms are relative to the
    normalized semigroup scale e^{t Re mu}."""

    z: complex
    rows: tuple[dict, ...]
    power_residuals: tuple[tuple[int, float], ...]

    @property
    def remainder_decays(self) -> bool:
        norms = [r["remainder_norm"] for r in self.rows]
        floor = 64 * np.finfo(float).eps
        return all(b < max(0.95 * a, floor) for a, b in zip(norms, norms[1:]))


def decomposition_check(spec: ModelSpec, theta: float, s: float, t_list, *,
                        n: int | None = None) -> DecompositionReport:
    """Verify the rank-one + remainder decomposition of the tilted semigroup
    at z = theta + i s, including R(N t) = R(t)^N for N = 2, 3."""
    ops = operators_for(spec, n)
    z = complex(float(theta), float(s))
    ed = ops.eigendata(z if s else float(theta))
    proj = np.outer(ed.g, ed.psi) * ops.weight
    mu_ref = ops.mu(float(theta))

    t_sorted = sorted(float(t) for t in t_list)
    t_all = t_sorted + [N * t_sorted[0] for N in (2, 3)] if t_sorted else []
    mats = _semigroup(ops, z, t_all, mu_ref)
    log_top = _log_time1(ops, ed.value) - mu_ref
    tops = {t: np.exp(log_top * t) * proj for t in mats}
    rems = {t: mats[t] - tops[t] for t in mats}

    rows = []
    for t in t_sorted:
        R = rems[t]
        rows.append({
            "t": t,
            "remainder_norm": _rowsum_norm(R),
            "reconstruction": _rowsum_norm(mats[t] - (tops[t] + R)),
            "projector_commutator": _rowsum_norm(proj @ R) + _rowsum_norm(R @ proj),
        })

    power_residuals = []
    if t_sorted:
        t0 = t_sorted[0]
        for N in (2, 3):
            diff = _rowsum_norm(rems[N * t0] - np.linalg.matrix_power(rems[t0], N))
            power_residuals.append((N, diff))
            if diff > 1e-8:
                raise ConvergenceError(
                    f"remainder semigroup property violated at N={N}: residual {diff:.3e}")
    report = DecompositionReport(z=z, rows=tuple(rows), power_residuals=tuple(power_residuals))
    if len(rows) > 1 and not report.remainder_decays:
        raise ConvergenceError("remainder norm does not decay geometrically in t")
    return report


def _rowsum_norm(M: np.ndarray) -> float:
    """Induced max-row-sum norm, the package's operator-norm proxy."""
    return float(np.max(np.sum(np.abs(M), axis=1)))


def _log_time1(ops, value):
    return np.log(complex(value)) if ops.is_chain else complex(value)


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
