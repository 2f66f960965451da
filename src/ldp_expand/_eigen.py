"""Eigen machinery for the top (Perron) pair of tilted operators.

Desk-scale matrices (n <= 1024) are solved with the full dense spectrum;
the top pair is then polished by inverse iteration and a two-sided Rayleigh
quotient so that cumulant curves are smooth to near machine precision.
``rqi_pair`` is the one two-sided Rayleigh-quotient iteration; it runs on
any operator with products from both sides and shifted solves (the banded
tilted generators), and the dense polish reuses its step with an LU solver.
A step factors the operator once at its shift and solves both directions
with that factor (``shifted_solver``; on the banded operator one two-column
?gttrs call per side); the product M g it forms for the Rayleigh quotient
is the next residual test's product.
``krylov_expm_entry`` evaluates one entry of the full transform
exp(t (M - shift)) v on the same operators.  ``spectrum`` gives the
eigenvalues alone, and ``top_gap`` / ``refuse_degenerate`` the gap rule of
``top_eigen_data``, to callers whose pair comes from elsewhere (the banded
real-tilt centres of a diffusion).
"""
from __future__ import annotations

import warnings
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import DegenerateSpectrumError


@contextmanager
def quiet_singular():
    """Inverse iteration factors matrices that are singular by design."""
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore", sla.LinAlgWarning)
        yield

# Relative threshold below which the top pair counts as degenerate.
GAP_RTOL = 1e-8
# Two-sided Rayleigh-quotient steps before ``rqi_pair`` gives up.
RQI_MAX_ITER = 8


@dataclass(frozen=True)
class EigenData:
    """Top eigenpair of a matrix operator.

    ``value`` is the matrix-scale eigenvalue (generator: rightmost; transfer
    matrix: largest modulus).  ``g`` is the right eigenvector with sup norm 1,
    ``psi`` the left eigenvector with bilinear pairing sum(psi * g) * weight
    equal to 1 (the operator's cell weight: ``ops.weight``), and ``gap`` the
    distance from ``value`` to the rest of the spectrum in the sort metric.
    """

    value: complex
    g: np.ndarray
    psi: np.ndarray
    gap: float
    residual: float


def top_eigen_data(M: np.ndarray, weight: float = 1.0, sort: str = "real",
                   positive: bool = False) -> EigenData:
    """Compute the dominant eigenpair of a dense matrix, polished by
    ``_polish_pair``; a gap below GAP_RTOL (relative) is degenerate.

    Parameters
    ----------
    M : square matrix (real or complex).
    weight : quadrature weight of one grid cell (dx on a torus grid, 1 for chains).
    sort : "real" picks the rightmost eigenvalue (generators), "abs" the
        largest modulus (time-1 transfer matrices).
    positive : enforce a positive right/left pair (real Perron case).
    """
    M = np.asarray(M)
    w, vl, vr = sla.eig(M, left=True, right=True)
    top, gap = top_gap(w, sort)

    value = w[top]
    g = vr[:, top].copy()
    psi = vl[:, top].conj().copy()

    value, g, psi = _polish_pair(M, value, g, psi)
    refuse_degenerate(w, gap, value, sort)

    if positive:
        value, g, psi = _realize_positive(M, value, g, psi)
    else:
        j = int(np.argmax(np.abs(g)))
        g = g / g[j]
        g = g / np.max(np.abs(g))

    pairing = np.sum(psi * g) * weight
    if pairing == 0:
        raise DegenerateSpectrumError("left/right eigenvectors are bilinearly orthogonal")
    psi = psi / pairing

    residual = float(np.max(np.abs(M @ g - value * g)))
    return EigenData(value=value, g=g, psi=psi, gap=gap, residual=residual)


def top_gap(w: np.ndarray, sort: str = "real") -> tuple[int, float]:
    """(index of the top eigenvalue in the spectrum w, its distance to the
    rest in the sort metric of ``top_eigen_data``)."""
    key = w.real if sort == "real" else np.abs(w)
    top = int(np.argmax(key))
    rest = np.delete(key, top)
    return top, float(key[top] - np.max(rest)) if rest.size else np.inf


def refuse_degenerate(w: np.ndarray, gap: float, value, sort: str = "real") -> None:
    """DegenerateSpectrumError when the top gap of the spectrum w is below
    GAP_RTOL relative to the top value."""
    if gap < GAP_RTOL * max(1.0, abs(value)):
        key = w.real if sort == "real" else np.abs(w)
        w_sorted = w[np.argsort(-key)]
        raise DegenerateSpectrumError(
            f"near-degenerate top pair: {w_sorted[0]:.12g} vs {w_sorted[1]:.12g} (gap {gap:.3e})")


class _DenseSolver:
    """A dense matrix with the product and shifted solve of ``_rqi_step``,
    and the diagonal shift and scale of a pinned solve."""

    def __init__(self, M: np.ndarray):
        self.M = M

    @property
    def scale(self) -> float:
        """Largest entry modulus."""
        return float(np.max(np.abs(self.M)))

    def shifted_diagonal(self, shift) -> "_DenseSolver":
        return _DenseSolver(self.M + np.diag(shift))

    def matvec(self, u: np.ndarray) -> np.ndarray:
        return self.M @ u

    def shifted_solver(self, sigma):
        """solve(r, trans=False) for (M - sigma) x = r, or its transpose."""
        ident = np.eye(self.M.shape[0], dtype=np.promote_types(self.M.dtype, type(sigma)))
        lu = sla.lu_factor(self.M - sigma * ident)
        return lambda r, trans=False: sla.lu_solve(lu, r, trans=int(trans))


def _rqi_step(op, value, g, psi):
    """One two-sided inverse-iteration step at shift ``value`` followed by
    the two-sided Rayleigh quotient; (value, g, psi, M g) of the new pair,
    or None on breakdown.  Callers enter ``quiet_singular``."""
    try:
        solve = op.shifted_solver(value)
        g2, psi2 = solve(g), solve(psi, trans=True)
    except (sla.LinAlgError, ValueError):
        return None
    # ndarray methods: the same reductions as np.max / np.all without the
    # dispatch wrapper, which costs as much as the reduction at n = 256
    if not (np.isfinite(g2).all() and np.isfinite(psi2).all()):
        return None
    g2 = g2 / np.abs(g2).max()
    psi2 = psi2 / np.abs(psi2).max()
    denom = psi2 @ g2
    if denom == 0 or not np.isfinite(denom):
        return None
    Mg2 = op.matvec(g2)
    value2 = (psi2 @ Mg2) / denom
    if not np.isfinite(value2):
        return None
    return value2, g2, psi2, Mg2


def _polish_pair(M, value, g, psi):
    """One to two rounds of inverse iteration plus a two-sided Rayleigh
    quotient, each kept only when it does not raise the residual."""
    op = _DenseSolver(M)
    with quiet_singular():
        res = np.max(np.abs(M @ g - value * g))
        for _ in range(2):
            step = _rqi_step(op, value, g, psi)
            if step is None:
                break
            value2, g2, psi2, Mg2 = step
            res2 = np.max(np.abs(Mg2 - value2 * g2))
            if res2 > res:
                break
            value, g, psi, res = value2, g2, psi2, res2
    return value, g, psi


def _realize_positive(M, value, g, psi):
    """Cast a Perron pair of a real operator to positive real vectors."""
    if abs(np.imag(value)) > 1e-9 * max(1.0, abs(value)):
        raise DegenerateSpectrumError(f"expected a real top eigenvalue, got {value:.6g}")
    value = float(np.real(value))

    def fix(vec, label):
        scale = vec[int(np.argmax(np.abs(vec)))]
        vec = np.real(vec / scale)
        lo = np.min(vec)
        if lo < -1e-7 * np.max(np.abs(vec)):
            raise DegenerateSpectrumError(f"{label} eigenvector is not sign-definite (min {lo:.3e})")
        return np.clip(vec, 0.0, None)

    g = fix(g, "right")
    g = g / np.max(g)
    psi = fix(psi, "left")
    return value, g, psi


def spectrum(M: np.ndarray) -> np.ndarray:
    """All eigenvalues of a dense matrix (no vectors).  An exactly Hermitian
    matrix, such as a real tilt of a self-adjoint generator (V0 = 0), goes
    to the Hermitian solver, which returns them real at a fraction of the
    cost of the general Hessenberg QR."""
    M = np.asarray(M)
    if np.array_equal(M, M.conj().T):
        return sla.eigvalsh(M)
    return sla.eigvals(M)


def rqi_pair(op, g0: np.ndarray, psi0: np.ndarray, weight: float):
    """Two-sided Rayleigh-quotient iteration for one eigen pair, warm-started
    from (g0, psi0).

    ``op`` offers ``matvec(u)`` (M u), ``rmatvec(v)`` (v M), ``scale`` (the
    largest entry modulus), ``dtype`` and ``shifted_solver(sigma)`` (one
    factor, whose solve(r, trans=False) returns (M - sigma)^{-1} r, or
    (M - sigma)^{-T} r with ``trans=True``).  One ``matvec`` per step
    serves both its Rayleigh quotient and the next residual test.  The
    iteration runs in the common precision of operator and seeds, so a real
    Perron branch stays real.  Returns (value, g, psi) with the largest-modulus
    entry of g equal to 1 and ``sum(psi * g) * weight = 1``, or None when
    convergence fails."""
    dtype = np.result_type(op.dtype, g0, psi0)
    g = np.array(g0, dtype=dtype)
    psi = np.array(psi0, dtype=dtype)
    denom = psi @ g
    if denom == 0 or not np.isfinite(denom):
        return None
    Mg = op.matvec(g)
    value = (psi @ Mg) / denom
    target = max(1e-12, 32 * np.finfo(float).eps * op.scale)
    converged = False
    with quiet_singular():
        for it in range(RQI_MAX_ITER):
            # the seed always takes one step: a seed from a nearby operator can
            # pass the residual test while its vectors keep a first-order error
            if (it and np.abs(Mg - value * g).max() < target
                    and np.abs(op.rmatvec(psi) - value * psi).max() < target):
                converged = True
                break
            step = _rqi_step(op, value, g, psi)
            if step is None:
                return None
            value, g, psi, Mg = step
    if not converged:
        return None
    g = g / g[int(np.abs(g).argmax())]
    g = g / np.abs(g).max()
    pairing = (psi * g).sum() * weight
    if pairing == 0 or not np.isfinite(pairing):
        return None
    return value.item(), g, psi / pairing


# Largest shift-and-invert Krylov space before ``krylov_expm_entry`` gives up.
KRYLOV_MAX_DIM = 40


def krylov_expm_entry(op, shift: float, t: float, i0: int, v: np.ndarray,
                      rtol: float, peak: float = 0.0):
    """e_{i0}^T exp(t (M - shift)) v by shift-and-invert Arnoldi on
    (I - gamma (M - shift))^{-1}, gamma = t / 10 (van den Eshof & Hochbruck,
    SIAM J. Sci. Comput. 27, 2006).

    ``op`` offers ``dtype`` and ``shifted_solver(sigma)`` (a solve
    function); one factor serves every Krylov step.  On an m-dimensional
    space with Hessenberg matrix H the projection of M - shift is
    (I - H^{-1}) / gamma, whose small matrix exponential gives the m-th
    value.  Stops when two successive values differ by at most
    rtol * max(peak, |value|), or at once when the space is invariant;
    returns None when KRYLOV_MAX_DIM steps do not get there or a solve
    breaks down."""
    gamma = t / 10.0
    # (I - gamma (M - shift))^{-1} = -(1 / gamma) (M - (shift + 1 / gamma))^{-1}
    try:
        solve = op.shifted_solver(shift + 1.0 / gamma)
    except sla.LinAlgError:
        return None
    dtype = np.result_type(op.dtype, v)
    V = np.zeros((v.size, KRYLOV_MAX_DIM + 1), dtype=dtype)
    H = np.zeros((KRYLOV_MAX_DIM + 1, KRYLOV_MAX_DIM), dtype=dtype)
    beta = np.linalg.norm(v)
    V[:, 0] = v / beta
    prev = None
    for j in range(KRYLOV_MAX_DIM):
        w = solve(V[:, j]) * (-1.0 / gamma)
        for _ in range(2):  # Gram-Schmidt twice keeps V orthonormal to rounding
            h = V[:, :j + 1].conj().T @ w
            w = w - V[:, :j + 1] @ h
            H[:j + 1, j] += h
        H[j + 1, j] = np.linalg.norm(w)
        m = j + 1
        try:
            A = (np.eye(m) - np.linalg.inv(H[:m, :m])) / gamma
        except np.linalg.LinAlgError:
            return None
        value = beta * (V[i0, :m] @ sla.expm(t * A)[:, 0])
        if not np.isfinite(value):
            return None
        if abs(H[j + 1, j]) <= 1e-14 * np.linalg.norm(H[:m + 1, j]):
            return value.item()  # invariant subspace: the value is exact
        if prev is not None and abs(value - prev) <= rtol * max(peak, abs(value)):
            return value.item()
        prev = value
        V[:, j + 1] = w / H[j + 1, j]
    return None
