"""Reference values computed without the library under test.

Mathieu model (V = 1, V0 = 0, b = cos 2 pi x, sigma = 1 on the unit torus).
With y = pi x the tilted eigenproblem (1/2) g'' + theta cos(2 pi x) g = lam g
becomes Mathieu's equation with q = -theta / pi^2, so

    mu(theta)  = theta^2 / 2 - (pi^2 / 2) a_0(theta / pi^2)      (a_0 is even in q)
    gap(theta) = (pi^2 / 2) (min(a_2(q), b_2(q)) - a_0(q))        (period-1 modes only)
    g(x)       = ce_0(pi x; q = -theta / pi^2)                    (the sign of q matters)

Derivatives of mu come from five-point central differences of ``mathieu_a``,
which scipy evaluates to near machine precision.  The operator is
self-adjoint, so the left eigenvector is proportional to g and

    D_0 = g(x0) int g / int g^2 * sqrt(I''(a)) / (theta_a sqrt(2 pi)).

Tail probabilities invert the transform on the Fourier (Hill) matrix of the
tilted generator, which is exact for this model up to the mode cut-off.

Gaussian baseline (the observable is a standard Brownian motion):
P(S_t >= a t) = Phi-bar(a sqrt t), theta_a = a, I(a) = a^2 / 2, I'' = 1, and
the Mills-ratio series gives D_0 = 1 / (a sqrt(2 pi)), D_1 = -D_0 / a^2,
D_2 = 3 D_0 / a^4, D_3 = -15 D_0 / a^6.  Complex tilts shift the whole
spectrum by -s^2 / 2, so the B3 margin is s^2 / 2 and the normalized
semigroup norm ratio is exp(-t s^2 / 2).
"""
from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq
from scipy.special import mathieu_a, mathieu_b, mathieu_cem, ndtr

PI2 = math.pi ** 2
_FD_H = 1e-2  # theta step of the five-point stencils (truncation ~ h^4)


# ---------------------------------------------------------------------------
# Mathieu model.

def mathieu_mu(theta: float) -> float:
    return 0.5 * theta * theta - 0.5 * PI2 * float(mathieu_a(0, theta / PI2))


def mathieu_mu_prime(theta: float, h: float = _FD_H) -> float:
    m2, m1, p1, p2 = (mathieu_mu(theta + k * h) for k in (-2, -1, 1, 2))
    return (8.0 * (p1 - m1) - (p2 - m2)) / (12.0 * h)


def mathieu_mu_second(theta: float, h: float = _FD_H) -> float:
    m2, m1, m0, p1, p2 = (mathieu_mu(theta + k * h) for k in (-2, -1, 0, 1, 2))
    return (-p2 + 16.0 * p1 - 30.0 * m0 + 16.0 * m1 - m2) / (12.0 * h * h)


def mathieu_theta(a: float) -> float:
    """Tilt with mu'(theta) = a (mu' is increasing from mu'(0) = 0)."""
    hi = 1.0
    while mathieu_mu_prime(hi) < a:
        hi *= 2.0
    return float(brentq(lambda th: mathieu_mu_prime(th) - a, 0.0, hi, xtol=1e-14))


def mathieu_rate_point(a: float) -> dict:
    theta = mathieu_theta(a)
    return {"theta": theta,
            "rate": a * theta - mathieu_mu(theta),
            "curvature": 1.0 / mathieu_mu_second(theta)}


def mathieu_gap(theta: float) -> float:
    q = -theta / PI2
    upper = min(float(mathieu_a(2, q)), float(mathieu_b(2, q)))
    return 0.5 * PI2 * (upper - float(mathieu_a(0, q)))


def mathieu_tail(a: float, ts, *, modes: int = 16, h: float = 0.02,
                 span: float = 3.0) -> list[float]:
    """P(S_t >= a t) from x0 = 0 for each t, by the same saddle-line
    inversion the library uses, but on the Fourier (Hill) form of the tilted
    generator instead of its finite-difference grid:

        G(z) e_k = (-2 pi^2 k^2 + z^2 / 2) e_k + (z / 2) (e_{k-1} + e_{k+1}),

    so E_0[e^{z S_t}] = sum_k [exp(t G(z))]_{k0} is spectrally accurate in
    the mode count.  The trapezoid step is far inside the strip set by the
    pole of 1/z at s = i theta, and the span is many widths of the integrand.
    """
    theta = mathieu_theta(a)
    mu = mathieu_mu(theta)
    ts = np.asarray(ts, dtype=float)
    k = np.arange(-modes, modes + 1)
    off = np.ones(2 * modes)
    total = np.zeros(ts.size)
    for j, s in enumerate(np.arange(0.0, span + h / 2, h)):
        z = complex(theta, s)
        H = (np.diag(-2.0 * PI2 * k * k + 0.5 * z * z - mu)
             + 0.5 * z * (np.diag(off, 1) + np.diag(off, -1)))
        lam, vec = np.linalg.eig(H)
        weights = vec.sum(axis=0) * np.linalg.solve(vec, np.eye(k.size)[:, modes])
        transform = np.exp(np.outer(ts, lam)) @ weights
        vals = (transform * np.exp(-1j * s * a * ts) / z).real
        total += vals if j else 0.5 * vals
    normalized = h / np.pi * total  # integrand is even in s: twice the half-line
    return list(normalized * np.exp(-(a * theta - mu) * ts))


def mathieu_d0(a: float, x0: float = 0.0, n_quad: int = 4096) -> float:
    """Leading tail coefficient for the frame (x0, v = 1)."""
    rp = mathieu_rate_point(a)
    theta = rp["theta"]
    q = -theta / PI2
    x = np.arange(n_quad) / n_quad
    g = mathieu_cem(0, q, 180.0 * x)[0]  # degrees of y = pi x
    g0 = float(mathieu_cem(0, q, 180.0 * x0)[0])
    # trapezoid rule on a periodic integrand converges spectrally
    ell = g0 * float(np.mean(g)) / float(np.mean(g * g))
    return ell * math.sqrt(rp["curvature"]) / (theta * math.sqrt(2.0 * math.pi))


# ---------------------------------------------------------------------------
# Gaussian baseline.

def gaussian_tail(a: float, t: float) -> float:
    return float(ndtr(-a * math.sqrt(t)))


def gaussian_coefficients(a: float) -> tuple[float, float, float, float]:
    d0 = 1.0 / (a * math.sqrt(2.0 * math.pi))
    return d0, -d0 / a**2, 3.0 * d0 / a**4, -15.0 * d0 / a**6


def gaussian_b3_margin(s: float) -> float:
    return 0.5 * s * s


def gaussian_norm_ratio(s: float, t: float) -> float:
    return math.exp(-0.5 * t * s * s)


def discrete_laplacian_gap(n: int) -> float:
    """Gap of (1/2) times the periodic 3-point Laplacian with spacing 1/n:
    the closed form of the discretized Gaussian generator's spectrum."""
    return float(n * n * (1.0 - math.cos(2.0 * math.pi / n)))
