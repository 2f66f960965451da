"""Finite-dimensional operators for a model: generator stencils, tilts,
semigroup steps, invariant densities, and cached per-model workspaces.

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

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from ._eigen import (EigenData, _DenseSolver, krylov_expm_entry, quiet_singular,
                     rqi_pair, top_eigen_data)
from .errors import (GridResolutionError, ModelValidationError,
                     SemigroupOverflowError)
from .model import (DiscreteChainSpec, EvaluationFrame, ModelSpec,
                    TorusDiffusionSpec, validate_spec)

DEFAULT_GRID_N = 256

# exp(t G) entries reach exp(t * max row Gershgorin surplus); beyond this the
# result overflows double precision and time-splitting is required.
OVERFLOW_CAP = 700.0


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
class GeneratorMatrix:
    """Discretized (possibly complex-tilted) generator."""

    matrix: np.ndarray
    z: complex
    tag: str  # "base" or "tilted"
    grid: PeriodicGrid

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


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
    Sherman-Morrison (Numerical Recipes, section 2.7), so each solve is O(n)."""

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
        return float(max(np.max(np.abs(self.lo)), np.max(np.abs(self.diag)),
                         np.max(np.abs(self.up))))

    def shifted_diagonal(self, shift) -> "CyclicTridiagonal":
        return CyclicTridiagonal(lo=self.lo, diag=self.diag + shift, up=self.up)

    def matvec(self, u: np.ndarray) -> np.ndarray:
        """M u."""
        return self.diag * u + self.up * _next(u) + self.lo * _prev(u)

    def rmatvec(self, v: np.ndarray) -> np.ndarray:
        """v M (the left product, without conjugation)."""
        return self.diag * v + _prev(self.up * v) + _next(self.lo * v)

    @classmethod
    def from_dense(cls, M: np.ndarray) -> "CyclicTridiagonal":
        """The three periodic diagonals of a dense matrix that has no other
        nonzero entry."""
        n = M.shape[0]
        idx = np.arange(n)
        op = cls(lo=M[idx, (idx - 1) % n], diag=M[idx, idx], up=M[idx, (idx + 1) % n])
        if not np.array_equal(op.dense(), M):
            raise ModelValidationError("matrix is not cyclic tridiagonal")
        return op

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
        of the transposed system (M - sigma)^T x = r with ``trans=True``.

        Writes M - sigma = T + u w^T with u = (gamma, 0, ..., 0, a) and
        w = (1, 0, ..., 0, b / gamma), where a and b are the bottom-left and
        top-right corners and T is tridiagonal.  gamma = -(M - sigma)_{00}
        keeps T's first pivot clear of cancellation; when that entry is
        smaller than the corners (a pin that cancels the diagonal), gamma =
        -max(|a|, |b|, 1) keeps b / gamma and a b / gamma bounded instead."""
        d = self.diag - sigma
        a, b = self.up[-1], self.lo[0]
        floor = max(abs(a), abs(b), 1.0)
        gamma = -d[0] if abs(d[0]) >= floor else -floor
        d[0] -= gamma
        d[-1] -= a * b / gamma
        dl, du = self.lo[1:], self.up[:-1]
        gttrf, gttrs = sla.get_lapack_funcs(("gttrf", "gttrs"), (dl, d, du))
        dtype = gttrf.dtype
        dl, d, du, du2, ipiv, info = gttrf(dl.astype(dtype), d.astype(dtype), du.astype(dtype))
        if info > 0:
            raise sla.LinAlgError(f"tridiagonal factor is singular at pivot {info}")
        n = self.n
        u = np.zeros(n, dtype=dtype)
        u[0], u[-1] = gamma, a
        w = np.zeros(n, dtype=dtype)
        w[0], w[-1] = 1.0, b / gamma
        # T q = u and T^T p = w, shared by every right-hand side
        q, _ = gttrs(dl, d, du, du2, ipiv, u)
        p, _ = gttrs(dl, d, du, du2, ipiv, w, trans="T")
        denom_n = 1.0 + (q[0] + w[-1] * q[-1])
        denom_t = 1.0 + (gamma * p[0] + a * p[-1])
        # sigma an eigenvalue to working precision zeroes a denominator; as
        # inverse iteration does with a zero pivot, perturb it by one rounding
        # unit, so the solve returns the null vector q (or p) scaled up, not inf
        eps = np.finfo(float).eps
        denom_n = denom_n if denom_n != 0 else eps
        denom_t = denom_t if denom_t != 0 else eps

        def solve(r, trans=False):
            r = np.asarray(r)
            if np.iscomplexobj(r) and dtype.kind != "c":
                # a real factor solves the real and imaginary parts apart
                return solve(r.real, trans) + 1j * solve(r.imag, trans)
            if trans:
                y, _ = gttrs(dl, d, du, du2, ipiv, r.astype(dtype), trans="T")
                return y - ((gamma * y[0] + a * y[-1]) / denom_t) * p
            y, _ = gttrs(dl, d, du, du2, ipiv, r.astype(dtype))
            return y - ((y[0] + w[-1] * y[-1]) / denom_n) * q

        return solve


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


def build_generator(spec: TorusDiffusionSpec, grid: PeriodicGrid) -> GeneratorMatrix:
    """Dense matrix of the generator stencil."""
    return GeneratorMatrix(matrix=generator_stencil(spec, grid).dense(), z=0.0,
                           tag="base", grid=grid)


def build_tilted_generator(spec: TorusDiffusionSpec, grid: PeriodicGrid, z: complex) -> GeneratorMatrix:
    """G(z) = A + diag(z b + z^2 sigma^2 / 2)."""
    return DiffusionOperators(spec, grid.n).generator(z)


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


def semigroup_step(G: GeneratorMatrix | np.ndarray, t: float) -> np.ndarray:
    """exp(t G) by scaling-and-squaring (Pade kernel), 1e-12 relative accuracy."""
    if t < 0:
        raise ValueError(f"semigroup time must be nonnegative, got {t}")
    M = G.matrix if isinstance(G, GeneratorMatrix) else np.asarray(G)
    surplus = _gershgorin_top(M)
    if t * surplus > OVERFLOW_CAP:
        raise SemigroupOverflowError(
            f"t * growth bound = {t * surplus:.3g} exceeds {OVERFLOW_CAP}; "
            "split the time interval or use log-domain evaluation")
    return sla.expm(t * M)


def _gershgorin_top(M: np.ndarray) -> float:
    diag = np.real(np.diag(M))
    offsum = np.sum(np.abs(M), axis=1) - np.abs(np.diag(M))
    return float(np.max(diag + offsum))


def invariant_density(A: CyclicTridiagonal | GeneratorMatrix | DiscreteChainSpec) -> InvariantDensity:
    """Stationary density: null vector of A^T for a base (untilted) torus
    generator, given as its stencil or as a ``GeneratorMatrix``, or the left
    Perron vector of the transition matrix of a chain."""
    if isinstance(A, DiscreteChainSpec):
        P = A.transition_matrix()
        rho = _null_density(P.T - np.eye(A.n_states), scale=1.0)
        residual = float(np.max(np.abs(P.T @ rho - rho)))
        rho = rho / rho.sum()
        return InvariantDensity(rho=rho, residual=residual, weight=1.0)
    if isinstance(A, GeneratorMatrix) and A.tag == "base":
        A = CyclicTridiagonal.from_dense(A.matrix)
    if not isinstance(A, CyclicTridiagonal):
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

    Pinning the largest entry of that vector (adding op.scale to its
    diagonal entry) leaves op^T invertible exactly when the null space is
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
            pin[int(np.argmax(np.abs(vec)))] = op.scale
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
            lu = sla.lu_factor(MT - w[order[0]] * np.eye(MT.shape[0], dtype=MT.dtype))
            cand = sla.lu_solve(lu, vec.astype(MT.dtype))
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

_WORKSPACES: dict = {}


def clear_caches() -> None:
    """Drop every cached workspace, so the next operation on any model
    starts cold."""
    _WORKSPACES.clear()


def operators_for(spec: ModelSpec, n: int | None = None):
    """Workspace for a spec, cached so spectra are shared across operations."""
    if isinstance(spec, TorusDiffusionSpec):
        key = (spec, n or DEFAULT_GRID_N)
        if key not in _WORKSPACES:
            _WORKSPACES[key] = DiffusionOperators(spec, key[1])
        return _WORKSPACES[key]
    if isinstance(spec, DiscreteChainSpec):
        key = (spec, None)
        if key not in _WORKSPACES:
            _WORKSPACES[key] = ChainOperators(spec)
        return _WORKSPACES[key]
    raise TypeError(f"no operators for {type(spec).__name__}")


class DiffusionOperators:
    """Tabulated fields, generator, and cached spectral data for one diffusion."""

    is_chain = False
    # warm Rayleigh-quotient starts are only trusted this close to a cached tilt
    _WARM_RADIUS = 0.75

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
        self._eigen: dict[complex, EigenData] = {}
        self._mu_lite: dict[float, tuple[float, np.ndarray, np.ndarray]] = {}
        self._mgf_cache: dict = {}
        # top-pair continuation along saddle lines: theta -> {s: (value, g, psi)}
        self._top_lines: dict[float, dict[float, tuple]] = {}
        self._top_cert: dict = {}
        # certifications, and saddle-line nodes the single mode does not
        # cover, whose Krylov transform fell back to the dense nmgf
        self.certify_fallbacks = 0
        self.quadrature_fallbacks = 0

    # -- operators ---------------------------------------------------------
    def operator(self, z: complex) -> CyclicTridiagonal:
        """G(z) as three periodic diagonals."""
        if z == 0:
            return self.stencil
        return self.stencil.shifted_diagonal(self.tilt_diagonal(z))

    def tilted(self, z: complex) -> np.ndarray:
        """Dense G(z), for full spectra and matrix exponentials."""
        return self.operator(z).dense()

    def generator(self, z: complex) -> GeneratorMatrix:
        return GeneratorMatrix(matrix=self.tilted(z), z=z,
                               tag="base" if z == 0 else "tilted", grid=self.grid)

    def tilt_diagonal(self, z: complex) -> np.ndarray:
        return z * self.b + 0.5 * z * z * self.sigma2

    def _tilt_terms(self, theta: float):
        """G(theta) with the actions of G' = diag(b + theta sigma^2) and
        G'' = diag(sigma^2)."""
        drift = self.b + theta * self.sigma2
        return self.operator(theta), (lambda u: drift * u), (lambda u: self.sigma2 * u)

    @property
    def rho(self) -> InvariantDensity:
        if self._rho is None:
            self._rho = invariant_density(self.stencil)
        return self._rho

    # -- spectra -----------------------------------------------------------
    def eigendata(self, z: complex) -> EigenData:
        """Full top-eigen data of G(z); real tilts demand a positive pair."""
        z = complex(z)
        if z.imag == 0.0:
            z = z.real
        if z not in self._eigen:
            self._eigen[z] = top_eigen_data(self.tilted(z), weight=self.weight,
                                            sort="real", positive=isinstance(z, float))
        return self._eigen[z]

    def perron(self, theta: float) -> tuple[float, np.ndarray, np.ndarray]:
        """(mu, g, psi) of the real tilt at theta: warm Rayleigh-quotient
        continuation on the tridiagonal operator along a theta ladder, dense
        eigensolve as fallback."""
        theta = float(theta)
        hit = self._mu_lite.get(theta)
        if hit is not None:
            return hit
        if theta in self._eigen:
            ed = self._eigen[theta]
            self._mu_lite[theta] = (float(np.real(ed.value)), ed.g, ed.psi)
            return self._mu_lite[theta]
        near_theta, seed = self._nearest_lite(theta)
        while seed is not None and abs(near_theta - theta) > 1e-15:
            gap_th = theta - near_theta
            step = np.sign(gap_th) * min(abs(gap_th), self._WARM_RADIUS)
            rung = theta if abs(gap_th) <= self._WARM_RADIUS else near_theta + step
            warm = self._rqi(rung, seed)
            if warm is None:
                seed = None
                break
            self._mu_lite[rung] = warm
            near_theta, seed = rung, warm
            if rung == theta:
                return warm
        if seed is not None:
            return seed
        ed = self.eigendata(theta)
        self._mu_lite[theta] = (float(np.real(ed.value)), ed.g, ed.psi)
        return self._mu_lite[theta]

    def mu(self, theta: float) -> float:
        """log of the time-1 Perron eigenvalue, i.e. the rightmost eigenvalue
        of G(theta)."""
        return self.perron(theta)[0]

    def _nearest_lite(self, theta: float):
        if not self._mu_lite:
            # stationarity seeds the continuation: mu(0) = 0, g = 1, psi = rho
            self._mu_lite[0.0] = (0.0, np.ones(self.grid.n), self.rho.rho.copy())
        best_th = min(self._mu_lite, key=lambda th: abs(th - theta))
        return best_th, self._mu_lite[best_th]

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
    def nmgf(self, z: complex, ts: np.ndarray, frame: EvaluationFrame, mu_ref: float) -> np.ndarray:
        """Normalized transform values  E_x0[e^{z Y_t}] * exp(-t mu_ref)  for
        each t, via one cached eigendecomposition of G(z) per tilt."""
        key = (complex(z), frame.cache_key())
        hit = self._mgf_cache.get(key)
        if hit is None:
            Gz = self.tilted(z)
            w, vr = sla.eig(Gz)
            i0 = frame.index_on(self.grid.n)
            v = frame.vector_on(self.grid.n)
            coeff = sla.solve(vr, v.astype(complex))
            c = vr[i0, :] * coeff
            hit = (w, c)
            self._mgf_cache[key] = hit
        w, c = hit
        ts = np.asarray(ts, dtype=float)
        return np.array([np.sum(c * np.exp((w - mu_ref) * t)) for t in ts])

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
        Perron pair by two-sided Rayleigh-quotient iteration; None when the
        continuation fails to converge."""
        theta, s = float(theta), float(s)
        line = self._top_lines.setdefault(theta, {})
        hit = line.get(s)
        if hit is not None:
            return hit
        if not line:
            mu0, g0, psi0 = self.perron(theta)
            line[0.0] = (complex(mu0), g0.astype(complex), psi0.astype(complex))
            if s == 0.0:
                return line[0.0]
        near = min(line, key=lambda sv: abs(sv - s))
        _, g_seed, psi_seed = line[near]
        pair = rqi_pair(self.operator(complex(theta, s)), g_seed, psi_seed, self.weight)
        if pair is None:
            return None
        line[s] = pair
        return pair

    def nmgf_top(self, z: complex, ts, frame: EvaluationFrame, mu_ref: float):
        """Single-mode transform  c_top exp((lambda_top - mu_ref) t); valid
        once the sub-dominant remainder is certified negligible.  None when
        the continuation fails."""
        z = complex(z)
        pair = self.top_pair(z.real, z.imag)
        if pair is None:
            return None
        value, g, psi = pair
        c = frame.ell_pi_v(g, psi, self.weight)
        ts = np.asarray(ts, dtype=float)
        return np.array([c * np.exp((value - mu_ref) * t) for t in ts])

    def certify_top_mode(self, theta: float, t: float, frame: EvaluationFrame,
                         tol: float, s_probes) -> bool:
        """Compare the single-mode transform against the full transform at
        probe tilts, within tol times the transform at s = 0; certification at
        horizon t extends to all larger t.  The full transform comes from
        ``krylov_expm_entry`` on the banded G(z), or from the dense ``nmgf``
        when the Krylov space does not settle (counted in
        ``certify_fallbacks``)."""
        key = (float(theta), frame.cache_key())
        cached = self._top_cert.get(key)
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
                value = self.nmgf(complex(theta, s), (t,), frame, mu_ref)[0]
            return value

        at_zero = full_at(0.0, 0.0)
        peak = abs(at_zero)
        if peak == 0.0:
            return False
        for s in s_probes:
            s = float(s)
            top = self.nmgf_top(complex(theta, s), (t,), frame, mu_ref)
            if top is None or abs(top[0] - (full_at(s, peak) if s else at_zero)) > tol * peak:
                self._top_cert[key] = (t, False)
                return False
        self._top_cert[key] = (t, True)
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
        self._eigen: dict[complex, EigenData] = {}
        self._rho: InvariantDensity | None = None

    @property
    def n_states(self) -> int:
        return self.spec.n_states

    def tilted(self, z: complex) -> np.ndarray:
        """Time-1 transfer matrix T(z)_{ij} = P_{ij} exp(z m_j + z^2 var_j / 2)."""
        wcol = np.exp(z * self.m + 0.5 * z * z * self.var)
        return self.P * wcol[None, :]

    def _tilt_terms(self, theta: float):
        """T(theta) as a dense operator with the actions of
        T' = T diag(m + theta var) and T'' = T diag((m + theta var)^2 + var)."""
        T = self.tilted(theta)
        drift = self.m + theta * self.var
        curv = drift**2 + self.var
        return _DenseSolver(T), (lambda u: T @ (drift * u)), (lambda u: T @ (curv * u))

    @property
    def rho(self) -> InvariantDensity:
        if self._rho is None:
            self._rho = invariant_density(self.spec)
        return self._rho

    def eigendata(self, z: complex) -> EigenData:
        z = complex(z)
        if z.imag == 0.0:
            z = z.real
        if z not in self._eigen:
            self._eigen[z] = top_eigen_data(self.tilted(z), weight=1.0,
                                            sort="abs", positive=isinstance(z, float))
        return self._eigen[z]

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

    def nmgf(self, z: complex, ns: np.ndarray, frame: EvaluationFrame, mu_ref: float) -> np.ndarray:
        """Normalized transform  E_x0[e^{z S_n}] * lambda(theta)^{-n} over step
        counts, by repeated application of T(z) / e^{mu_ref}."""
        T = self.tilted(z) * np.exp(-mu_ref)
        i0 = frame.index_on(self.n_states)
        u = frame.vector_on(self.n_states).astype(complex)
        ns = np.asarray(ns, dtype=int)
        out = np.empty(ns.size, dtype=complex)
        want: dict[int, list[int]] = {}
        for k, n in enumerate(ns):
            want.setdefault(int(n), []).append(k)
        for k in want.get(0, ()):
            out[k] = u[i0]
        for step in range(1, int(ns.max(initial=0)) + 1):
            u = T @ u
            for k in want.get(step, ()):
                out[k] = u[i0]
        return out


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
