"""Monte Carlo engine: path simulation on the torus, exponential-tilting
importance sampling through the spectral change of measure, and the
corrector-based effective diffusivity.

Noise streams are counter-based: block ``b`` of stream ``j`` for seed ``s``
comes from an independent Philox state keyed by (s, j) with counter b, so a
batch is bit-for-bit reproducible for fixed (seed, dt, n_paths) and any
chunked evaluation order.  Stream 0 drives the torus coordinate, stream 1
the observable (the independence the change of measure relies on), stream 2
stationary-start sampling.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .discretize import operators_for
from .errors import DegenerateSpectrumError, SampleSizeError
from .fields import FourierField, TabulatedField
from .model import EvaluationFrame, TorusDiffusionSpec
from .rate import rate_point
from .spectral import effective_diffusivity_core, solve_corrector

MAX_DT = 1e-2
_BLOCK_STEPS = 32


@dataclass(frozen=True)
class TrajectoryBatch:
    """Final states of a simulated path ensemble."""

    t: float
    dt: float
    n_paths: int
    seed: int
    x_initial: np.ndarray
    x_final: np.ndarray
    y_final: np.ndarray


@dataclass(frozen=True)
class ISEstimate:
    """Tail probability estimate with its sampling diagnostics."""

    p_hat: float
    stderr: float
    ess: float
    theta: float
    n_paths: int
    n_hits: int


@dataclass(frozen=True)
class Corrector:
    """Solution of the tilted Poisson problem and the stationary drift."""

    theta: float
    f: np.ndarray
    c_theta: float
    residual: float


@dataclass(frozen=True)
class DecorrelationReport:
    """Per-horizon values of (1/t) E[(Y_t - c t) g'(X_t)/g(X_t)] under the
    stationary tilted law; decay toward zero reflects de-correlation."""

    theta: float
    rows: tuple[tuple[float, float, float], ...]  # (t, statistic, stderr)


def _stream_key(seed: int, stream: int) -> np.ndarray:
    ss = np.random.SeedSequence(entropy=int(seed) & (2**63 - 1), spawn_key=(stream,))
    return ss.generate_state(2, np.uint64)


def _noise_block(seed: int, stream: int, block: int, shape) -> np.ndarray:
    counter = np.zeros(4, dtype=np.uint64)
    counter[2] = np.uint64(block)
    bitgen = np.random.Philox(counter=counter, key=_stream_key(seed, stream))
    out = np.empty(shape)
    np.random.Generator(bitgen).standard_normal(out=out.reshape(-1))
    return out


def _uniform_block(seed: int, stream: int, size: int) -> np.ndarray:
    bitgen = np.random.Philox(counter=np.zeros(4, dtype=np.uint64),
                              key=_stream_key(seed, stream))
    return np.random.Generator(bitgen).random(size)


def _compile(field):
    """Constant fields evaluate to scalars inside the stepping loop."""
    if isinstance(field, FourierField) and field.is_constant:
        c = float(field.const)
        return lambda x, _c=c: _c
    return field


def euler_maruyama(spec: TorusDiffusionSpec, t: float, dt: float, n_paths: int,
                   seed: int, *, x0: float = 0.0, stratonovich: bool = True,
                   x_init: np.ndarray | None = None) -> TrajectoryBatch:
    """Euler-Maruyama stepping of the torus coordinate and the observable.

    The torus drift is V0 plus the Stratonovich correction (1/2) sum V_i V_i'
    (omitted with ``stratonovich=False`` for an Ito reading); the observable
    steps with b(X) dt + sigma(X) dW~ from the independent stream.  Weak
    order one in dt.
    """
    if not isinstance(spec, TorusDiffusionSpec):
        raise TypeError("path simulation is defined for torus diffusions")
    if dt > MAX_DT * (1 + 1e-12):
        raise ValueError(f"dt={dt} too large; the stepper requires dt <= {MAX_DT}")
    n_steps = round(t / dt)
    if abs(n_steps * dt - t) > 1e-9 * max(1.0, t):
        raise ValueError(f"t={t} must be an integer multiple of dt={dt}")

    def is_const(f):
        return isinstance(f, FourierField) and f.is_constant

    k = len(spec.fields_v)
    v_const = all(is_const(f) for f in spec.fields_v)
    b_const = is_const(spec.obs_drift_b)
    sigma_const = is_const(spec.obs_noise_sigma)

    if x_init is not None:
        X = np.asarray(x_init, dtype=float).copy()
        if X.shape != (n_paths,):
            raise ValueError("x_init must have one entry per path")
        x_start = X.copy()
    else:
        X = np.full(n_paths, float(x0))
        x_start = np.full(1, float(x0))
    Y = np.zeros(n_paths)

    if v_const and is_const(spec.drift_v0) and b_const and sigma_const:
        _advance_linear(spec, X, Y, n_steps, dt, n_paths, seed, k)
    else:
        _advance_stepping(spec, X, Y, n_steps, dt, n_paths, seed, k,
                          v_const, b_const, sigma_const, stratonovich)
    X -= np.floor(X)
    return TrajectoryBatch(t=float(t), dt=float(dt), n_paths=int(n_paths),
                           seed=int(seed), x_initial=x_start, x_final=X, y_final=Y)


def _advance_linear(spec, X, Y, n_steps, dt, n_paths, seed, k):
    """Constant-coefficient dynamics advance in exact block increments: the
    joint law of (X_t, Y_t) equals per-step Euler in distribution, with one
    normal per block per stream."""
    vc = [float(f.const) for f in spec.fields_v]
    v0c = float(spec.drift_v0.const)
    bc = float(spec.obs_drift_b.const)
    sc = float(spec.obs_noise_sigma.const)
    for bidx, block in enumerate(range(0, n_steps, _BLOCK_STEPS)):
        rows = min(_BLOCK_STEPS, n_steps - block)
        scale = math.sqrt(rows * dt)
        xi = _noise_block(seed, 0, bidx, (k, n_paths))
        eta = _noise_block(seed, 1, bidx, (n_paths,))
        for i in range(k):
            if vc[i]:
                X += (vc[i] * scale) * xi[i]
        Y += (sc * scale) * eta
    if v0c:
        X += v0c * (n_steps * dt)
    if bc:
        Y += bc * (n_steps * dt)


def _advance_stepping(spec, X, Y, n_steps, dt, n_paths, seed, k,
                      v_const, b_const, sigma_const, stratonovich):
    v_funcs = [_compile(f) for f in spec.fields_v]
    v0 = _compile(spec.drift_v0)
    v0_zero = isinstance(spec.drift_v0, FourierField) and spec.drift_v0.is_constant \
        and spec.drift_v0.const == 0.0
    b = _compile(spec.obs_drift_b)
    sigma = _compile(spec.obs_noise_sigma)
    strat = None if v_const or not stratonovich else spec.stratonovich_correction
    sqdt = math.sqrt(dt)
    tmp = np.empty(n_paths)

    for bidx, block in enumerate(range(0, n_steps, _BLOCK_STEPS)):
        rows = min(_BLOCK_STEPS, n_steps - block)
        dwx = _noise_block(seed, 0, bidx, (rows, k, n_paths))
        dwx *= sqdt
        if v_const:
            for i in range(k):
                ci = float(spec.fields_v[i].const)
                if ci != 1.0:
                    dwx[:, i, :] *= ci
        if sigma_const:
            # the observable stream is independent of X; with constant sigma
            # its block noise aggregates exactly into one normal
            eta = _noise_block(seed, 1, bidx, (n_paths,))
            Y += (float(spec.obs_noise_sigma.const) * math.sqrt(rows * dt)) * eta
            dwy = None
        else:
            dwy = _noise_block(seed, 1, bidx, (rows, n_paths))
            dwy *= sqdt
        for r in range(rows):
            # all coefficients evaluate at the pre-step X
            if not b_const:
                np.multiply(b(X), dt, out=tmp)
                Y += tmp
            if dwy is not None:
                Y += sigma(X) * dwy[r]
            if v_const:
                if not v0_zero:
                    X += np.asarray(v0(X)) * dt
                for i in range(k):
                    X += dwx[r, i]
            else:
                np.multiply(v_funcs[0](X), dwx[r, 0], out=tmp)
                for i in range(1, k):
                    tmp += v_funcs[i](X) * dwx[r, i]
                drift = strat(X) if strat is not None else 0.0
                if not v0_zero:
                    drift = drift + np.asarray(v0(X))
                if not np.isscalar(drift) or drift:
                    tmp += np.asarray(drift) * dt
                X += tmp
    bconst_val = float(spec.obs_drift_b.const) if b_const else 0.0
    if bconst_val:
        Y += bconst_val * (n_steps * dt)


def tilted_dynamics(spec: TorusDiffusionSpec, theta: float, *,
                    n: int | None = None) -> TorusDiffusionSpec:
    """Model of the spectrally tilted process: extra torus drift
    (V V^T) grad log g_theta and observable drift b + theta sigma^2; the
    noise fields are unchanged."""
    theta = float(theta)
    if theta == 0.0:
        return spec
    ops = operators_for(spec, n)
    _, g, _ = ops.perron(theta)
    if np.min(g) <= 0.0:
        raise DegenerateSpectrumError("tilted eigenfunction is not positive; spectral failure upstream")
    m = g.size
    dlng = (np.roll(np.log(g), -1) - np.roll(np.log(g), 1)) * (0.5 * m)
    extra = ops.vv * dlng
    # eigensolver noise floor: drift this small is dynamically irrelevant
    if np.max(np.abs(extra)) < 1e-10:
        new_v0 = spec.drift_v0
    else:
        new_v0 = TabulatedField(tuple(np.asarray(spec.drift_v0(ops.x)) + extra))
    if isinstance(spec.obs_noise_sigma, FourierField) and spec.obs_noise_sigma.is_constant:
        new_b = spec.obs_drift_b.shifted(theta * float(spec.obs_noise_sigma.const) ** 2)
    else:
        new_b = TabulatedField(tuple(np.asarray(spec.obs_drift_b(ops.x)) + theta * ops.sigma2))
    return replace(spec, drift_v0=new_v0, obs_drift_b=new_b)


def estimate_tail_is(spec: TorusDiffusionSpec, frame: EvaluationFrame, a: float,
                     t: float, dt: float, n_paths: int, seed: int, *,
                     n: int | None = None) -> ISEstimate:
    """Importance-sampled tail estimate under the tilted dynamics with the
    change-of-measure weight  e^{-theta Y_t + t mu(theta)} g(X_0)/g(X_t)."""
    rp = rate_point(spec, a, n=n)
    theta = rp.theta
    ops = operators_for(spec, n)
    log_g = np.log(ops.perron(theta)[1])
    i0 = frame.index_on(ops.grid.n)
    x0 = i0 * ops.dx
    tspec = tilted_dynamics(spec, theta, n=n)
    batch = euler_maruyama(tspec, t, dt, n_paths, seed, x0=x0)
    mu_t = ops.mu(theta)
    log_w = (-theta * batch.y_final + t * mu_t
             + log_g[i0] - _periodic_lookup(log_g, batch.x_final))
    hits = batch.y_final >= a * t
    w = np.where(hits, np.exp(log_w), 0.0)
    p_hat = float(np.mean(w))
    stderr = float(np.std(w, ddof=1) / np.sqrt(n_paths))
    n_hits = int(np.count_nonzero(hits))
    if n_hits:
        wh = w[hits]
        ess = float(np.sum(wh) ** 2 / np.sum(wh * wh))
    else:
        ess = 0.0
    if ess < 10.0:
        raise SampleSizeError(
            f"effective sample size {ess:.1f} < 10; use a shorter horizon or re-tune the tilt")
    return ISEstimate(p_hat=p_hat, stderr=stderr, ess=ess, theta=theta,
                      n_paths=int(n_paths), n_hits=n_hits)


def estimate_tail_mc(spec: TorusDiffusionSpec, frame: EvaluationFrame, a: float,
                     t: float, dt: float, n_paths: int, seed: int, *,
                     n: int | None = None) -> ISEstimate:
    """Naive indicator-mean baseline; documents zero-hit outcomes instead of
    raising so that rare-event failure is visible data."""
    ops = operators_for(spec, n)
    i0 = frame.index_on(ops.grid.n)
    batch = euler_maruyama(spec, t, dt, n_paths, seed, x0=i0 * ops.dx)
    hits = batch.y_final >= a * t
    w = hits.astype(float)
    p_hat = float(np.mean(w))
    stderr = float(np.std(w, ddof=1) / np.sqrt(n_paths)) if n_paths > 1 else 0.0
    n_hits = int(np.count_nonzero(hits))
    return ISEstimate(p_hat=p_hat, stderr=stderr, ess=float(n_hits), theta=0.0,
                      n_paths=int(n_paths), n_hits=n_hits)


def _periodic_lookup(table: np.ndarray, x: np.ndarray) -> np.ndarray:
    n = table.size
    pos = (x - np.floor(x)) * n
    i0 = np.floor(pos).astype(np.intp)
    frac = pos - i0
    i0 = np.mod(i0, n)
    i1 = (i0 + 1) % n
    return (1.0 - frac) * table[i0] + frac * table[i1]


def corrector(spec: TorusDiffusionSpec, theta: float, *, n: int | None = None) -> Corrector:
    """Corrector of the tilted Poisson problem A~ f = c_theta - (b + theta sigma^2)."""
    ops = operators_for(spec, n)
    f, c_theta, residual = solve_corrector(ops, float(theta))
    return Corrector(theta=float(theta), f=f, c_theta=c_theta, residual=residual)


def effective_diffusivity(spec: TorusDiffusionSpec, theta: float, *,
                          n: int | None = None) -> float:
    """Xi(theta): asymptotic variance per unit time of the tilted observable,
    from the corrector quadratic form; equals mu''(theta)."""
    ops = operators_for(spec, n)
    xi, _, _, _ = effective_diffusivity_core(ops, float(theta))
    return xi


def decorrelation_check(spec: TorusDiffusionSpec, theta: float, t_list,
                        n_paths: int, seed: int, *, dt: float = 1e-2,
                        n: int | None = None) -> DecorrelationReport:
    """Monte Carlo measurement of the coupling statistic between the tilted
    observable and the eigenfunction slope along the torus coordinate,
    started from the stationary tilted law."""
    theta = float(theta)
    t_list = [float(t) for t in t_list]
    if not t_list:
        return DecorrelationReport(theta=theta, rows=())
    ops = operators_for(spec, n)
    _, g, psi = ops.perron(theta)
    if np.min(g) <= 0.0:
        raise DegenerateSpectrumError("tilted eigenfunction is not positive")
    m = g.size
    dlng = (np.roll(np.log(g), -1) - np.roll(np.log(g), 1)) * (0.5 * m)
    pi = psi * g * ops.weight
    pi = np.clip(pi, 0.0, None)
    pi = pi / pi.sum()
    x_init = _sample_stationary(pi, ops.dx, n_paths, seed)
    c_theta = corrector(spec, theta, n=n).c_theta
    tspec = tilted_dynamics(spec, theta, n=n)
    rows = []
    for t in sorted(t_list):
        batch = euler_maruyama(tspec, t, dt, n_paths, seed, x_init=x_init)
        vals = (batch.y_final - c_theta * t) * _periodic_lookup(dlng, batch.x_final)
        stat = float(np.mean(vals) / t)
        stderr = float(np.std(vals, ddof=1) / np.sqrt(n_paths) / t)
        rows.append((t, stat, stderr))
    return DecorrelationReport(theta=theta, rows=tuple(rows))


def _sample_stationary(pi: np.ndarray, dx: float, n_paths: int, seed: int) -> np.ndarray:
    """Inverse-CDF sampling of the piecewise-constant tilted density."""
    cdf = np.concatenate([[0.0], np.cumsum(pi)])
    cdf[-1] = 1.0
    u = _uniform_block(seed, 2, n_paths)
    cell = np.searchsorted(cdf, u, side="right") - 1
    cell = np.clip(cell, 0, pi.size - 1)
    width = cdf[cell + 1] - cdf[cell]
    frac = np.where(width > 0, (u - cdf[cell]) / np.where(width > 0, width, 1.0), 0.5)
    return (cell + frac) * dx
