"""Stochastic model specs consumed by the rest of the pipeline.

Two model families are supported: diffusions on the unit torus driven by
periodic vector fields with an independently-noised scalar observable, and
finite-state chains with per-state (possibly deterministic) increments used
as oracle substrates.  Specs are immutable and safe to share.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ModelValidationError
from .fields import Field, FourierField, constant, harmonic, zero

DEFAULT_VALIDATION_N = 256


@dataclass(frozen=True)
class TorusDiffusionSpec:
    """Periodic diffusion dX = sum_i V_i o dW_i + V0 dt with observable
    dY = b(X) dt + sigma(X) dW~, the W~ stream independent of W.

    All lengths are dimensionless; the torus period is 1 per coordinate.
    """

    fields_v: tuple[Field, ...]
    drift_v0: Field
    obs_drift_b: Field
    obs_noise_sigma: Field
    dim: int = 1

    @property
    def kind(self) -> str:
        return "torus_diffusion"

    def diffusion_coeff(self, x):
        """V V^T at x (scalar in one dimension)."""
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape)
        for f in self.fields_v:
            v = f(x)
            out += v * v
        return out

    def stratonovich_correction(self, x):
        """(1/2) sum_i V_i V_i', the Ito drift correction in one dimension."""
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape)
        for f in self.fields_v:
            out += 0.5 * f(x) * f.derivative(x)
        return out

    def max_harmonic(self) -> int:
        fields = (*self.fields_v, self.drift_v0, self.obs_drift_b, self.obs_noise_sigma)
        return max((f.max_harmonic for f in fields if isinstance(f, FourierField)), default=0)


@dataclass(frozen=True)
class DiscreteChainSpec:
    """Finite-state chain; each step moves by the transition matrix and adds a
    per-destination-state increment, Gaussian with the given mean/variance
    (variance zero gives a deterministic increment)."""

    transition: tuple[tuple[float, ...], ...]
    increment_mean: tuple[float, ...]
    increment_var: tuple[float, ...]

    @property
    def kind(self) -> str:
        return "discrete_chain"

    @property
    def n_states(self) -> int:
        return len(self.transition)

    def transition_matrix(self) -> np.ndarray:
        return np.asarray(self.transition, dtype=float)

    def means(self) -> np.ndarray:
        return np.asarray(self.increment_mean, dtype=float)

    def variances(self) -> np.ndarray:
        return np.asarray(self.increment_var, dtype=float)


ModelSpec = TorusDiffusionSpec | DiscreteChainSpec


@dataclass(frozen=True)
class EvaluationFrame:
    """Start point (the Dirac functional) and the test vector.

    ``x0`` is a grid/state index, or a torus position in [0, 1) for
    diffusions.  ``v`` is a tabulated grid function; None means the constant
    one vector.
    """

    x0: float | int = 0
    v: tuple[float, ...] | None = None

    def index_on(self, n: int) -> int:
        if isinstance(self.x0, (int, np.integer)):
            i = int(self.x0)
            if not 0 <= i < n:
                raise ModelValidationError(f"x0 index {i} out of range for n={n}")
            return i
        pos = float(self.x0)
        if not 0.0 <= pos < 1.0:
            raise ModelValidationError(f"x0 position {pos} must lie in [0, 1)")
        return int(round(pos * n)) % n

    def vector_on(self, n: int) -> np.ndarray:
        if self.v is None:
            return np.ones(n)
        v = np.asarray(self.v, dtype=float)
        if v.shape != (n,):
            raise ModelValidationError(f"test vector has length {v.size}, expected {n}")
        if not np.all(np.isfinite(v)):
            raise ModelValidationError("test vector must be finite")
        if np.all(v == 0.0):
            raise ModelValidationError("test vector must not be identically zero")
        return v

    def ell_pi_v(self, g: np.ndarray, psi: np.ndarray, weight: float):
        """ell(Pi v) = g(x0) <psi, v> weight for the spectral projector
        Pi = g psi^T weight of a right/left pair with pairing one."""
        n = g.size
        return g[self.index_on(n)] * np.sum(psi * self.vector_on(n)) * weight


@dataclass(frozen=True)
class ValidationReport:
    """Violated invariants (errors) and advisory notes; empty means valid."""

    violations: tuple[str, ...] = ()
    warnings: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def raise_for_errors(self):
        if self.violations:
            raise ModelValidationError("; ".join(self.violations))


def validate_spec(spec: ModelSpec, n: int = DEFAULT_VALIDATION_N) -> ValidationReport:
    """Check every model invariant and report violations (never raises)."""
    if isinstance(spec, TorusDiffusionSpec):
        return _validate_torus(spec, n)
    if isinstance(spec, DiscreteChainSpec):
        return _validate_chain(spec)
    return ValidationReport(violations=(f"unknown spec type {type(spec).__name__}",))


def _validate_torus(spec: TorusDiffusionSpec, n: int) -> ValidationReport:
    bad: list[str] = []
    if spec.dim != 1:
        bad.append(f"dim must be 1, got {spec.dim}")
    if not spec.fields_v:
        bad.append("at least one diffusion field V_i is required")

    x = np.arange(n) / n
    sig2 = np.asarray(spec.obs_noise_sigma(x)) ** 2
    if np.any(sig2 <= 0.0):
        bad.append("degenerate observable noise: sigma^2 must be positive everywhere")
    if spec.fields_v:
        d = spec.diffusion_coeff(x)
        if np.any(d <= 0.0):
            bad.append("degenerate diffusion: sum V_i V_i^T must be positive definite at every grid point")

    for name, f in (("V", spec.fields_v[0] if spec.fields_v else None),
                    ("V0", spec.drift_v0), ("b", spec.obs_drift_b),
                    ("sigma", spec.obs_noise_sigma)):
        if f is None:
            continue
        msg = _seam_check(f, name, n)
        if msg:
            bad.append(msg)
    return ValidationReport(tuple(bad))


def _seam_check(f: Field, name: str, n: int) -> str | None:
    """Flag tabulations whose value or first two finite-difference derivatives
    jump at the periodic seam relative to interior smoothness."""
    if isinstance(f, FourierField):
        return None  # periodic by construction
    diffs = np.asarray(f.values, dtype=float)
    scale = np.max(np.abs(diffs)) + 1.0
    for order in (1, 2, 3):
        diffs = np.roll(diffs, -1) - diffs  # cyclic difference; last entry is the seam
        seam = abs(diffs[-1])
        interior = np.abs(diffs[:-1])
        tol = 50.0 * (np.median(interior) + np.max(interior) * 0.1) + 1e-9 * scale
        if seam > tol:
            return f"field {name}: periodicity seam mismatch in difference order {order - 1}"
    return None


def _validate_chain(spec: DiscreteChainSpec) -> ValidationReport:
    bad: list[str] = []
    notes: list[str] = []
    P = spec.transition_matrix()
    m = spec.n_states
    if P.shape != (m, m):
        bad.append(f"transition matrix must be square, got shape {P.shape}")
        return ValidationReport(tuple(bad))
    if len(spec.increment_mean) != m or len(spec.increment_var) != m:
        bad.append("increment_mean and increment_var must have one entry per state")
    rows = P.sum(axis=1)
    if np.any(np.abs(rows - 1.0) > 1e-12):
        worst = int(np.argmax(np.abs(rows - 1.0)))
        bad.append(f"stochasticity violated: row {worst} sums to {rows[worst]:.12g}")
    if np.any(P < 0.0):
        bad.append("transition entries must be nonnegative")
    if len(spec.increment_var) == m and np.any(spec.variances() < 0.0):
        bad.append("increment variances must be nonnegative")
    if np.any(P == 0.0):
        notes.append("transition matrix has zero entries; spectral-gap guarantees need strict positivity")
    return ValidationReport(tuple(bad), tuple(notes))


def center_observable(spec: ModelSpec, rho: np.ndarray) -> ModelSpec:
    """Subtract the stationary mean of the observable drift so the additive
    functional has asymptotic mean zero under the supplied invariant density."""
    rho = np.asarray(rho, dtype=float)
    if isinstance(spec, TorusDiffusionSpec):
        n = rho.size
        if abs(rho.sum() / n - 1.0) > 1e-12:
            raise ModelValidationError("invariant density is not normalized (integral must be 1)")
        x = np.arange(n) / n
        bvals = np.asarray(spec.obs_drift_b(x))
        mean = float(np.sum(bvals * rho) / n)
        if abs(mean) < 1e-14 * max(1.0, float(np.max(np.abs(bvals)))):
            return spec  # already centered up to quadrature rounding
        return replace(spec, obs_drift_b=spec.obs_drift_b.shifted(-mean))
    if isinstance(spec, DiscreteChainSpec):
        if abs(rho.sum() - 1.0) > 1e-12:
            raise ModelValidationError("invariant distribution is not normalized (sum must be 1)")
        mean = float(np.dot(rho, spec.means()))
        if abs(mean) < 1e-14 * max(1.0, float(np.max(np.abs(spec.means()), initial=0.0))):
            return spec
        return replace(spec, increment_mean=tuple(v - mean for v in spec.increment_mean))
    raise TypeError(f"cannot center {type(spec).__name__}")


# ---------------------------------------------------------------------------
# Built-in models used throughout the tests and the README examples.

def gaussian_baseline() -> TorusDiffusionSpec:
    """V = 1, V0 = 0, b = 0, sigma = 1: the observable is a standard Brownian
    motion and every downstream quantity has a closed form."""
    return TorusDiffusionSpec(fields_v=(constant(1.0),), drift_v0=zero(),
                              obs_drift_b=zero(), obs_noise_sigma=constant(1.0))


def mathieu_model() -> TorusDiffusionSpec:
    """V = 1, V0 = 0, b = cos(2 pi x), sigma = 1: the canonical nontrivial
    instance; the tilted generator is a Mathieu-type operator."""
    return TorusDiffusionSpec(fields_v=(constant(1.0),), drift_v0=zero(),
                              obs_drift_b=harmonic("cos", 1), obs_noise_sigma=constant(1.0))


def gradient_drift_model() -> TorusDiffusionSpec:
    """V = 1, V0 = -sin(2 pi x): stationary density proportional to
    exp(cos(2 pi x) / pi), used as a closed-form density oracle."""
    return TorusDiffusionSpec(fields_v=(constant(1.0),),
                              drift_v0=harmonic("sin", 1, amplitude=-1.0),
                              obs_drift_b=harmonic("cos", 1), obs_noise_sigma=constant(1.0))


def two_state_pm1_chain() -> DiscreteChainSpec:
    """Symmetric two-state chain with deterministic +-1 increments; its
    partial sums are Rademacher walks with binomial tails."""
    return DiscreteChainSpec(transition=((0.5, 0.5), (0.5, 0.5)),
                             increment_mean=(1.0, -1.0), increment_var=(0.0, 0.0))


def checkerboard_chain() -> DiscreteChainSpec:
    """Period-2 deterministic alternation with +-1 increments: the designed
    negative control that violates the complex-tilt gap condition."""
    return DiscreteChainSpec(transition=((0.0, 1.0), (1.0, 0.0)),
                             increment_mean=(1.0, -1.0), increment_var=(0.0, 0.0))


def noisy_two_state_chain() -> DiscreteChainSpec:
    """Two-state chain with Gaussian increments; smooth-tail oracle substrate."""
    return DiscreteChainSpec(transition=((0.7, 0.3), (0.4, 0.6)),
                             increment_mean=(0.4, -0.7), increment_var=(0.3, 0.45))
