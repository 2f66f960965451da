"""Finite-dimensional operators for a model: generator stencils, tilts,
invariant densities, and cached per-model workspaces.

A diffusion workspace keeps one ``_Tilt`` record for each of the MAX_TILTS
most recently used real tilts, and the workspace table MAX_WORKSPACES
workspaces, both through ``_recent`` under one lock, so threads may share a
workspace; a stored value is a function of its key, so it is rebuilt bit for
bit after eviction.

The torus generator uses the divergence-form second-order stencil

    (A u)_i = (1/2) [ d_{i+1/2} (u_{i+1} - u_i) - d_{i-1/2} (u_i - u_{i-1}) ] / dx^2
              + V0_i (u_{i+1} - u_{i-1}) / (2 dx),

with midpoint-averaged d = V V^T, which keeps constants in the kernel
exactly and stays self-adjoint when V0 = 0.  Tilting adds the diagonal
z b(x) + z^2 sigma(x)^2 / 2.  The stencil is held as three periodic
diagonals (``CyclicTridiagonal``); dense matrices are built from it only
where a full spectrum or a matrix exponential is needed.
"""
from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from ._eigen import (EigenData, _DenseSolver, krylov_expm_entry, quiet_singular,
                     refuse_degenerate, rqi_pair, spectrum, top_eigen_data, top_gap)
from .errors import GridResolutionError, ModelValidationError
from .model import (DiscreteChainSpec, EvaluationFrame, ModelSpec,
                    TorusDiffusionSpec, validate_spec)

DEFAULT_GRID_N = 256
MAX_TILTS = 64
MAX_WORKSPACES = 8
# the fixed seeds of the Perron continuation: real tilts are continued along
# rungs 0.5 Z, saddle-line nodes along the lattice (1/8) Z in s
_RUNG = 0.5
_S_STEP = 0.125


@dataclass(frozen=True)
class PeriodicGrid:
    """Uniform periodic grid on the unit circle: n points, spacing 1/n."""

    n: int

    def __post_init__(self):
        if self.n < 8:
            raise GridResolutionError(f"grid needs n >= 8, got {self.n}")
        if self.n % 2:
            raise GridResolutionError(f"grid needs even n for symmetric stencils, got {self.n}")

    @property
    def dx(self) -> float:
        return 1.0 / self.n

    def points(self) -> np.ndarray:
        return np.arange(self.n) / self.n


@dataclass(frozen=True)
class InvariantDensity:
    """Nonnegative stationary density with unit integral."""

    rho: np.ndarray
    residual: float
    weight: float

    def integral(self) -> float:
        return float(np.sum(self.rho) * self.weight)


@dataclass(frozen=True)
class CyclicTridiagonal:
    """Periodic three-point operator

        (M u)_i = lo_i u_{i-1} + diag_i u_i + up_i u_{i+1}    (indices mod n),

    the exact form of a torus generator and of every tilt of it.  Products
    cost O(n).  ``shifted_solver`` factors the tridiagonal part of M - sigma
    once (LAPACK ?gttrf) and folds the two corner entries back in by
    Sherman-Morrison (``_ShiftedLU``): each solve is one O(n) ?gttrs call."""

    lo: np.ndarray
    diag: np.ndarray
    up: np.ndarray

    @property
    def n(self) -> int:
        return self.diag.size

    @property
    def dtype(self):
        return np.result_type(self.lo, self.diag, self.up)

    @property
    def scale(self) -> float:
        """Largest entry modulus (the max-norm of the dense matrix)."""
        return float(max(np.abs(self.lo).max(), np.abs(self.diag).max(),
                         np.abs(self.up).max()))

    def shifted_diagonal(self, shift) -> "CyclicTridiagonal":
        return CyclicTridiagonal(lo=self.lo, diag=self.diag + shift, up=self.up)

    def matvec(self, u: np.ndarray) -> np.ndarray:
        """M u."""
        return self.diag * u + self.up * _next(u) + self.lo * _prev(u)

    def rmatvec(self, v: np.ndarray) -> np.ndarray:
        """v M (the left product, without conjugation)."""
        return self.diag * v + _prev(self.up * v) + _next(self.lo * v)

    def dense(self) -> np.ndarray:
        n = self.n
        idx = np.arange(n)
        M = np.zeros((n, n), dtype=self.dtype)
        M[idx, (idx + 1) % n] = self.up
        M[idx, (idx - 1) % n] = self.lo
        M[idx, idx] = self.diag
        return M

    def shifted_solver(self, sigma):
        """solve(r, trans=False) returning (M - sigma)^{-1} r, or the solution
        of the transposed system (M - sigma)^T x = r with ``trans=True``.  One
        factor serves every right-hand side (``_ShiftedLU.solve``)."""
        return _ShiftedLU(self, sigma).solve


class _ShiftedLU:
    """M - sigma = T + u w^T for a ``CyclicTridiagonal`` M, with T
    tridiagonal and factored once (LAPACK ?gttrf), u = (gamma, 0, ..., 0, a)
    and w = (1, 0, ..., 0, b / gamma), where a and b are the bottom-left and
    top-right corners.  gamma = -(M - sigma)_{00} keeps T's first pivot clear
    of cancellation; when that entry is smaller than the corners (a pin that
    cancels the diagonal), gamma = -max(|a|, |b|, 1) keeps b / gamma and
    a b / gamma bounded instead.

    A solve of M - sigma (or of its transpose) is a solve y of T (T^T) with
    the corner folded back in by Sherman-Morrison (Numerical Recipes,
    section 2.7): x = y - (w^T y / (1 + w^T q)) q with T q = u, and
    x = y - (u^T y / (1 + u^T p)) p with T^T p = w."""

    def __init__(self, op: CyclicTridiagonal, sigma):
        d = op.diag - sigma
        a, b = op.up[-1], op.lo[0]
        floor = max(abs(a), abs(b), 1.0)
        gamma = -d[0] if abs(d[0]) >= floor else -floor
        d[0] -= gamma
        d[-1] -= a * b / gamma
        dl, du = op.lo[1:], op.up[:-1]
        gttrf, self._gttrs = sla.get_lapack_funcs(("gttrf", "gttrs"), (dl, d, du))
        *self._lu, info = gttrf(dl, d, du, overwrite_d=True)
        if info > 0:
            raise sla.LinAlgError(f"tridiagonal factor is singular at pivot {info}")
        self.dtype = gttrf.dtype
        n = op.n
        self.u = np.zeros(n, dtype=self.dtype)
        self.u[0], self.u[-1] = gamma, a
        self.w = np.zeros(n, dtype=self.dtype)
        self.w[0], self.w[-1] = 1.0, b / gamma
        self._gamma, self._a, self._b_gamma = gamma, a, self.w[-1]

    def _coupling(self, y, trans):
        # w^T y, or u^T y with trans
        return self._gamma * y[0] + self._a * y[-1] if trans else y[0] + self._b_gamma * y[-1]

    def _denominator(self, c: np.ndarray, trans: bool):
        denom = 1.0 + self._coupling(c, trans)
        # sigma an eigenvalue to working precision zeroes the denominator; as
        # inverse iteration does with a zero pivot, perturb it by one rounding
        # unit, so the solve returns the null vector q (or p) scaled up, not inf
        return denom if denom != 0 else np.finfo(float).eps

    def _fold(self, y: np.ndarray, c: np.ndarray, denom, trans: bool) -> np.ndarray:
        return y - (self._coupling(y, trans) / denom) * c

    def solve(self, r: np.ndarray, trans: bool = False) -> np.ndarray:
        """The solve of M - sigma (or its transpose) for r by one ?gttrs call
        on the block [u | r] ([w | r] with trans), whose first column gives
        the corner solve; a real factor takes the real and imaginary parts of
        a complex r as two columns."""
        split = np.iscomplexobj(r) and self.dtype.kind != "c"
        B = np.empty((r.size, 3 if split else 2), dtype=self.dtype, order="F")
        B[:, 0] = self.w if trans else self.u
        if split:
            B[:, 1], B[:, 2] = r.real, r.imag
        else:
            B[:, 1] = r
        Y, _ = self._gttrs(*self._lu, B, trans="T" if trans else "N", overwrite_b=True)
        c = Y[:, 0]
        denom = self._denominator(c, trans)
        x = self._fold(Y[:, 1], c, denom, trans)
        return x + 1j * self._fold(Y[:, 2], c, denom, trans) if split else x


def _next(u: np.ndarray) -> np.ndarray:
    """u_{i+1} with periodic wrap (np.roll(u, -1) at a third of the cost)."""
    return np.concatenate((u[1:], u[:1]))


def _prev(u: np.ndarray) -> np.ndarray:
    """u_{i-1} with periodic wrap."""
    return np.concatenate((u[-1:], u[:-1]))


def generator_stencil(spec: TorusDiffusionSpec, grid: PeriodicGrid) -> CyclicTridiagonal:
    """Divergence-form discretization of A u = (1/2) div(V V^T grad u) + V0 grad u."""
    _check_torus(spec, grid)
    dx = grid.dx
    x = grid.points()
    d = spec.diffusion_coeff(x)
    v0 = np.asarray(spec.drift_v0(x), dtype=float)

    d_plus = 0.5 * (d + np.roll(d, -1))     # d_{i+1/2}
    d_minus = np.roll(d_plus, 1)            # d_{i-1/2}
    up = 0.5 * d_plus / dx**2 + v0 / (2.0 * dx)
    lo = 0.5 * d_minus / dx**2 - v0 / (2.0 * dx)
    if np.any(up < 0.0) or np.any(lo < 0.0):
        raise GridResolutionError(
            "drift overwhelms diffusion at this resolution (negative off-diagonal); refine the grid")
    return CyclicTridiagonal(lo=lo, diag=-(up + lo), up=up)


def _check_torus(spec: TorusDiffusionSpec, grid: PeriodicGrid):
    report = validate_spec(spec, n=grid.n)
    report.raise_for_errors()
    kmax = spec.max_harmonic()
    if kmax and grid.n < 4 * kmax:
        raise GridResolutionError(
            f"grid n={grid.n} cannot resolve harmonic k={kmax} (need n >= {4 * kmax})")
    for f in (*spec.fields_v, spec.drift_v0, spec.obs_drift_b, spec.obs_noise_sigma):
        if hasattr(f, "values") and len(f.values) != grid.n:
            raise GridResolutionError(
                f"tabulated field length {len(f.values)} must equal grid n={grid.n}")


def invariant_density(A: CyclicTridiagonal | DiscreteChainSpec) -> InvariantDensity:
    """Stationary density: null vector of A^T for the stencil of a base
    (untilted) torus generator, or the left Perron vector of the transition
    matrix of a chain.  A stencil whose rows do not sum to zero, to 64
    rounding units of its scale, is refused."""
    if isinstance(A, DiscreteChainSpec):
        P = A.transition_matrix()
        rho = _null_density(P.T - np.eye(A.n_states), scale=1.0)
        residual = float(np.max(np.abs(P.T @ rho - rho)))
        rho = rho / rho.sum()
        return InvariantDensity(rho=rho, residual=residual, weight=1.0)
    if not (isinstance(A, CyclicTridiagonal)
            and np.abs(A.diag + A.up + A.lo).max() <= 64 * np.finfo(float).eps * A.scale):
        raise ModelValidationError("invariant density needs the base (untilted) generator")
    rho = _stencil_null_density(A)
    weight = 1.0 / A.n
    rho = rho / (rho.sum() * weight)
    residual = float(np.max(np.abs(A.rmatvec(rho))))
    return InvariantDensity(rho=rho, residual=residual, weight=weight)


def _null_tolerance(scale: float) -> float:
    """Eigenvalue modulus below which a second null direction is declared."""
    return max(1e-8 * max(scale, 1.0), 1e-12)


def _stencil_null_density(op: CyclicTridiagonal) -> np.ndarray:
    """Null vector of op^T in O(n): inverse iteration at shift 0 from the
    uniform vector, where the solver's zero-denominator guard turns the exact
    singularity into a large multiple of the null vector.

    Pinning the largest entry of that vector (subtracting op.scale from
    its diagonal entry, which keeps -op^T an M-matrix, nonsingular once
    pinned) leaves op^T invertible exactly when the null space is
    one-dimensional; the growth of inverse iteration on the pinned operator
    estimates its smallest eigenvalue modulus, which follows the second
    eigenvalue of op when the null space is numerically two-dimensional."""
    n = op.n
    try:
        with quiet_singular():
            solve = op.shifted_solver(0.0)
            vec = np.ones(n)
            for _ in range(2):
                vec = solve(vec, trans=True)
                vec = vec / np.max(np.abs(vec))
            pin = np.zeros(n)
            pin[int(np.argmax(np.abs(vec)))] = -op.scale
            pinned = op.shifted_diagonal(pin).shifted_solver(0.0)
            x = np.ones(n)
            for _ in range(2):
                y = pinned(x, trans=True)
                smallest = np.max(np.abs(x)) / np.max(np.abs(y))
                x = y / np.max(np.abs(y))
    except sla.LinAlgError:
        smallest = 0.0  # an exactly singular factor
    if not smallest >= _null_tolerance(op.scale):
        raise ModelValidationError(
            f"null space dimension != 1 (pinned smallest eigenvalue {smallest:.3e}); "
            "model is not irreducible at this discretization")
    return _nonnegative(vec)


def _null_density(MT: np.ndarray, scale: float) -> np.ndarray:
    """Null vector of a dense matrix (chains, whose transition matrices are
    small and not tridiagonal)."""
    w, vr = sla.eig(MT)
    order = np.argsort(np.abs(w))
    tol = _null_tolerance(scale)
    if len(w) > 1 and abs(w[order[1]]) < tol:
        raise ModelValidationError(
            f"null space dimension != 1 (|second eigenvalue| = {abs(w[order[1]]):.3e}); "
            "model is not irreducible at this discretization")
    vec = np.real(vr[:, order[0]])
    # one inverse-iteration polish against the (numerically) singular matrix
    try:
        with quiet_singular():
            cand = _DenseSolver(MT).shifted_solver(w[order[0]])(vec.astype(MT.dtype))
        cand = np.real(cand)
        if np.all(np.isfinite(cand)) and np.max(np.abs(cand)) > 0:
            vec = cand
    except (sla.LinAlgError, ValueError):
        pass
    return _nonnegative(vec)


def _nonnegative(vec: np.ndarray) -> np.ndarray:
    """A null vector scaled to largest entry 1 and positive sum, checked to
    be a density."""
    vec = vec / np.max(np.abs(vec))
    if vec.sum() < 0:
        vec = -vec
    lo = vec.min()
    if lo < -1e-8:
        raise ModelValidationError(f"stationary density is not nonnegative (min {lo:.3e})")
    return np.clip(vec, 0.0, None)


# ---------------------------------------------------------------------------
# Cached workspaces binding a spec to its finite-dimensional operators.

_LOCK = threading.RLock()
_WORKSPACES: OrderedDict = OrderedDict()


def _recent(store: OrderedDict, key, make, cap: int):
    """store[key], made by make() on a miss: a least-recently-used cache that
    drops its oldest entries beyond cap, read and written under one lock."""
    with _LOCK:
        if key not in store:
            store[key] = make()
        store.move_to_end(key)
        while len(store) > cap:
            store.popitem(last=False)
        return store[key]


def clear_caches() -> None:
    """Drop every cached workspace, so the next operation on any model
    starts cold."""
    with _LOCK:
        _WORKSPACES.clear()


def operators_for(spec: ModelSpec, n: int | None = None):
    """Workspace for a spec, cached so spectra are shared across operations."""
    if isinstance(spec, TorusDiffusionSpec):
        n = n or DEFAULT_GRID_N
        return _recent(_WORKSPACES, (spec, n), lambda: DiffusionOperators(spec, n), MAX_WORKSPACES)
    if isinstance(spec, DiscreteChainSpec):
        return _recent(_WORKSPACES, (spec, None), lambda: ChainOperators(spec), MAX_WORKSPACES)
    raise TypeError(f"no operators for {type(spec).__name__}")


class _Tilt:
    """A diffusion workspace's record of the real tilt theta: the ``line``
    {s: (lambda, g, psi)} of G(theta + i s) (the real Perron pair, stored real,
    at s = 0), the ``centre`` EigenData, the ``envelope`` max Re spec G(theta)
    and the single-mode ``verdicts`` {(frame, tol): (t, ok)}."""

    def __init__(self):
        self.line, self.centre, self.envelope, self.verdicts = {}, None, None, {}


class DiffusionOperators:
    """Tabulated fields, generator, and cached spectral data for one diffusion."""

    is_chain = False

    def __init__(self, spec: TorusDiffusionSpec, n: int = DEFAULT_GRID_N):
        self.spec = spec
        self.grid = PeriodicGrid(n)
        self.x = self.grid.points()
        self.dx = self.grid.dx
        self.weight = self.grid.dx
        self.vv = spec.diffusion_coeff(self.x)
        self.b = np.asarray(spec.obs_drift_b(self.x), dtype=float)
        self.sigma2 = np.asarray(spec.obs_noise_sigma(self.x), dtype=float) ** 2
        self.stencil = generator_stencil(spec, self.grid)
        self._rho: InvariantDensity | None = None
        # theta -> _Tilt, the MAX_TILTS most recently used real tilts
        self._tilts: OrderedDict[float, _Tilt] = OrderedDict()
        # certifications, and saddle-line nodes the single mode does not
        # cover, whose Krylov transform fell back to the dense nmgf
        self.certify_fallbacks = 0
        self.quadrature_fallbacks = 0
        # real tilts whose Perron centre is the dense top_eigen_data
        self.dense_centres: set[float] = set()

    def _tilt(self, theta: float) -> _Tilt:
        return _recent(self._tilts, theta, _Tilt, MAX_TILTS)

    # -- operators ---------------------------------------------------------
    def operator(self, z: complex) -> CyclicTridiagonal:
        """G(z) as three periodic diagonals."""
        if z == 0:
            return self.stencil
        return self.stencil.shifted_diagonal(self.tilt_diagonal(z))

    def tilted(self, z: complex) -> np.ndarray:
        """Dense G(z), for full spectra and matrix exponentials."""
        return self.operator(z).dense()

    def tilt_diagonal(self, z: complex) -> np.ndarray:
        return z * self.b + 0.5 * z * z * self.sigma2

    def _taylor_terms(self, theta: float, order: int):
        """G(theta) with the actions of the Taylor terms M_1, ..., M_order of
        G(theta + w) = G(theta) + w diag(b + theta sigma^2)
        + (w^2 / 2) diag(sigma^2), which ends at M_2."""
        drift, half = self.b + theta * self.sigma2, 0.5 * self.sigma2
        return self.operator(theta), [lambda u: drift * u, lambda u: half * u][:order]

    @property
    def rho(self) -> InvariantDensity:
        if self._rho is None:
            self._rho = invariant_density(self.stencil)
        return self._rho

    # -- spectra -----------------------------------------------------------
    def eigendata(self, z: complex) -> EigenData:
        """Top-eigen data of G(z): the stored Perron centre of ``_centre`` at
        a real tilt, the dense ``top_eigen_data`` at a complex one."""
        z = complex(z)
        if z.imag:
            return top_eigen_data(self.tilted(z), weight=self.weight, sort="real")
        rec = self._tilt(z.real)
        rec.centre = rec.centre or self._centre(z.real)
        return rec.centre

    def _centre(self, theta: float) -> EigenData:
        """Perron centre at a real tilt: (mu, g, psi) from the banded
        continuation, the gap from the eigenvalues alone of the dense
        G(theta).  The banded pair is kept when it lies on the top branch,
        within half the gap of the dense top eigenvalue; otherwise the centre
        is the dense ``top_eigen_data``, recorded in ``dense_centres``."""
        w = spectrum(self.tilted(theta))
        self._tilt(theta).envelope = float(np.max(w.real))
        top, gap = top_gap(w)
        refuse_degenerate(w, gap, w[top])
        pair = None if theta in self.dense_centres else (
            self._tilt(theta).line.get(0.0) or self._ladder(theta))
        if pair is None or not abs(pair[0] - w[top]) < 0.5 * gap:
            return self._dense_centre(theta)
        mu, g, psi = pair
        residual = float(np.max(np.abs(self.operator(theta).matvec(g) - mu * g)))
        return EigenData(value=mu, g=g, psi=psi, gap=gap, residual=residual)

    def envelope(self, theta: float) -> float:
        """max Re spec G(theta) at a real tilt: the top of the centre's
        eigenvalues, or one eigenvalues-only solve where no centre ran."""
        rec = self._tilt(theta)
        if rec.envelope is None:
            rec.envelope = float(np.max(spectrum(self.tilted(theta)).real))
        return rec.envelope

    def _dense_centre(self, theta: float) -> EigenData:
        """The dense ``top_eigen_data`` at a real tilt, which also replaces
        the continued pair there and drops the saddle line continued from
        it, so the line and later rungs restart from the dense pair."""
        ed = top_eigen_data(self.tilted(theta), weight=self.weight, sort="real", positive=True)
        self.dense_centres.add(theta)
        rec = self._tilt(theta)
        rec.centre, rec.line = ed, {0.0: _real_pair(ed)}
        return ed

    def perron(self, theta: float) -> tuple[float, np.ndarray, np.ndarray]:
        """(mu, g, psi) of the real tilt at theta: warm Rayleigh-quotient
        continuation on the tridiagonal operator along the fixed rungs
        (``_ladder``), dense eigensolve as fallback."""
        theta = float(theta)
        return (self._tilt(theta).line.get(0.0) or self._ladder(theta)
                or _real_pair(self._dense_centre(theta)))

    def _ladder(self, theta: float):
        """The pair at theta continued from the rung sign(theta) 0.5
        floor(|theta| / 0.5), itself continued from the stationary pair at
        theta = 0 through the rungs between (the dense pair at a rung in
        ``dense_centres``); every pair is stored.  None when a step fails."""
        pair = None
        for rung in (0.0, *_fixed_seeds(theta, _RUNG), theta):
            line = self._tilt(rung).line
            hit = line.get(0.0)
            if hit is None and rung in self.dense_centres:
                hit = _real_pair(self._dense_centre(rung))
            elif hit is None:
                # stationarity seeds the continuation: mu(0) = 0, g = 1, psi = rho
                hit = ((0.0, np.ones(self.grid.n), self.rho.rho.copy()) if pair is None
                       else self._rqi(rung, pair))
                if hit is None:
                    return None
                line[0.0] = hit
            pair = hit
        return pair

    def mu(self, theta: float) -> float:
        """log of the time-1 Perron eigenvalue, i.e. the rightmost eigenvalue
        of G(theta)."""
        return self.perron(theta)[0]

    def _rqi(self, theta: float, seed) -> tuple[float, np.ndarray, np.ndarray] | None:
        """Two-sided Rayleigh-quotient iteration toward the Perron pair of
        G(theta); returns None when convergence or positivity fails."""
        pair = rqi_pair(self.operator(theta), seed[1], seed[2], self.weight)
        if pair is None:
            return None
        mu, g, psi = pair
        # rqi_pair scales g to a largest entry of +1 and psi to pairing one, so
        # a Perron pair comes back positive
        if np.min(g) <= 0 or np.min(psi) < -1e-10 * np.max(np.abs(psi)):
            return None  # left the Perron branch; caller falls back to dense
        psi = np.clip(psi, 0.0, None)
        psi = psi / (np.sum(psi * g) * self.weight)
        return (float(mu), g, psi)

    # -- moment generating data ---------------------------------------------
    def nmgf(self, z: complex, t: float, frame: EvaluationFrame, mu_ref: float) -> complex:
        """Normalized transform  E_x0[e^{z Y_t}] * exp(-t mu_ref), via the
        dense eigendecomposition of G(z)."""
        w, vr = sla.eig(self.tilted(z))
        coeff = sla.solve(vr, frame.vector_on(self.grid.n).astype(complex))
        c = vr[frame.index_on(self.grid.n), :] * coeff
        return np.sum(c * np.exp((w - mu_ref) * t))

    def nmgf_krylov(self, z: complex, t: float, frame: EvaluationFrame, mu_ref: float,
                    rtol: float, peak: float = 0.0):
        """Normalized transform  E_x0[e^{z Y_t}] * exp(-t mu_ref)  by
        ``krylov_expm_entry`` on the banded G(z), settled to rtol times
        max(peak, |value|); None when the Krylov space does not settle."""
        z = complex(z)
        n = self.grid.n
        # a real tilt keeps the operator, and the Krylov space, real
        return krylov_expm_entry(self.operator(z if z.imag else z.real), mu_ref, t,
                                 frame.index_on(n), frame.vector_on(n), rtol, peak)

    def top_pair(self, theta: float, s: float):
        """Dominant eigen pair of G(theta + i s), continued in s from the real
        Perron pair by two-sided Rayleigh-quotient iteration through the
        points of (1/8) Z strictly between 0 and s, each stored, so a node
        depends on (theta, s) alone (the real pair itself, cast complex, at
        s = 0); None when the continuation fails to converge."""
        theta, s = float(theta), float(s)
        pair = self._tilt(theta).line.get(s) if s else None
        if pair is not None:
            return pair
        pair = self.perron(theta)
        if s == 0.0:
            return complex(pair[0]), pair[1].astype(complex), pair[2].astype(complex)
        line = self._tilt(theta).line
        for node in (*_fixed_seeds(s, _S_STEP), s):
            hit = line.get(node)
            if hit is None:
                hit = rqi_pair(self.operator(complex(theta, node)), pair[1], pair[2], self.weight)
                if hit is None:
                    return None
                line[node] = hit
            pair = hit
        return pair

    def nmgf_top(self, z: complex, t: float, frame: EvaluationFrame, mu_ref: float):
        """Single-mode transform  c_top exp((lambda_top - mu_ref) t); valid
        once the sub-dominant remainder is certified negligible.  None when
        the continuation fails."""
        z = complex(z)
        pair = self.top_pair(z.real, z.imag)
        if pair is None:
            return None
        value, g, psi = pair
        c = frame.ell_pi_v(g, psi, self.weight)
        return c * np.exp((value - mu_ref) * t)

    def certify_top_mode(self, theta: float, t: float, frame: EvaluationFrame,
                         tol: float, s_probes) -> bool:
        """Compare the single-mode transform against the full transform at
        probe tilts, within tol times the transform at s = 0; certification at
        horizon t extends to all larger t.  The full transform comes from
        ``krylov_expm_entry`` on the banded G(z), or from the dense ``nmgf``
        when the Krylov space does not settle (counted in
        ``certify_fallbacks``).  A verdict is kept per (theta, frame, tol)."""
        verdicts = self._tilt(float(theta)).verdicts
        cached = verdicts.get((frame, tol))
        if cached is not None:
            ok_t, verdict = cached
            if verdict and t >= ok_t:
                return True
            if not verdict and t <= ok_t:
                return False
        mu_ref = self.mu(theta)

        def full_at(s: float, peak: float) -> complex:
            value = self.nmgf_krylov(complex(theta, s), t, frame, mu_ref, 1e-3 * tol, peak)
            if value is None:
                self.certify_fallbacks += 1
                value = self.nmgf(complex(theta, s), t, frame, mu_ref)
            return value

        at_zero = full_at(0.0, 0.0)
        peak = abs(at_zero)
        if peak == 0.0:
            return False
        for s in s_probes:
            s = float(s)
            top = self.nmgf_top(complex(theta, s), t, frame, mu_ref)
            if top is None or abs(top - (full_at(s, peak) if s else at_zero)) > tol * peak:
                verdicts[(frame, tol)] = (t, False)
                return False
        verdicts[(frame, tol)] = (t, True)
        return True


class ChainOperators:
    """Tilted transfer matrices and spectra for a finite chain."""

    is_chain = True

    def __init__(self, spec: DiscreteChainSpec):
        report = validate_spec(spec)
        report.raise_for_errors()
        self.spec = spec
        self.P = spec.transition_matrix()
        self.m = spec.means()
        self.var = spec.variances()
        self.weight = 1.0
        self._eigen: OrderedDict = OrderedDict()  # z -> EigenData
        self._rho: InvariantDensity | None = None

    @property
    def n_states(self) -> int:
        return self.spec.n_states

    def tilted(self, z: complex) -> np.ndarray:
        """Time-1 transfer matrix T(z)_{ij} = P_{ij} exp(z m_j + z^2 var_j / 2)."""
        wcol = np.exp(z * self.m + 0.5 * z * z * self.var)
        return self.P * wcol[None, :]

    def _taylor_terms(self, theta: float, order: int):
        """T(theta) as a dense operator with the actions of the Taylor terms
        M_j = T(theta) diag(e_j), j = 1..order, of T(theta + w) =
        T(theta) diag(exp(w d + w^2 var / 2)), d = m + theta var:
        j e_j = d e_{j-1} + var e_{j-2} from e_0 = 1, e_1 = d."""
        T, d = self.tilted(theta), self.m + theta * self.var
        e = [np.ones_like(d), d]
        for j in range(2, order + 1):
            e.append((d * e[-1] + self.var * e[-2]) / j)
        return _DenseSolver(T), [lambda u, ej=ej: T @ (ej * u) for ej in e[1:]]

    @property
    def rho(self) -> InvariantDensity:
        if self._rho is None:
            self._rho = invariant_density(self.spec)
        return self._rho

    def eigendata(self, z: complex) -> EigenData:
        z = complex(z)
        z = z if z.imag else z.real
        return _recent(self._eigen, z, lambda: top_eigen_data(
            self.tilted(z), weight=1.0, sort="abs", positive=isinstance(z, float)), MAX_TILTS)

    def perron(self, theta: float) -> tuple[float, np.ndarray, np.ndarray]:
        ed = self.eigendata(float(theta))
        return float(np.real(ed.value)), ed.g, ed.psi

    def mu(self, theta: float) -> float:
        """log Perron root of the time-1 tilted transfer matrix."""
        return float(np.log(self.perron(theta)[0]))

    def lattice(self) -> tuple[float, float] | None:
        """(span, per-step offset) when increments are deterministic on a
        lattice; None when any state has Gaussian noise."""
        if np.any(self.var > 0.0):
            return None
        base = float(self.m[0])
        return (lattice_span(self.m, base), base)

    def nmgf(self, z: complex, n: int, frame: EvaluationFrame, mu_ref: float) -> complex:
        """Normalized transform  E_x0[e^{z S_n}] * e^{-n mu_ref}  after n
        steps, by repeated application of T(z) / e^{mu_ref}."""
        T = self.tilted(z) * np.exp(-mu_ref)
        u = frame.vector_on(self.n_states).astype(complex)
        for _ in range(n):
            u = T @ u
        return u[frame.index_on(self.n_states)]


def _real_pair(ed: EigenData) -> tuple[float, np.ndarray, np.ndarray]:
    """(mu, g, psi) of a real tilt's dense centre."""
    return float(np.real(ed.value)), ed.g, ed.psi


def _fixed_seeds(x: float, step: float) -> list[float]:
    """The points of step Z strictly between 0 and x, from 0 outward: the
    chain along which the pair at x is continued."""
    return [math.copysign(j * step, x) for j in range(1, math.ceil(abs(x) / step))]


def lattice_span(values, base: float) -> float:
    """Largest span h with every value in base + h Z (to 1e-9); 0 when all
    values equal base."""
    span = 0.0
    for v in values:
        span = _float_gcd(span, abs(float(v) - base))
    return span


def _float_gcd(a: float, b: float, tol: float = 1e-9) -> float:
    a, b = abs(a), abs(b)
    while b > tol:
        a, b = b, a % b
    return a
