"""Monte Carlo engine: path simulation on the torus, exponential-tilting
importance sampling through the spectral change of measure, and the
corrector-based effective diffusivity.

Noise streams are counter-based: block ``b`` of stream ``j`` for seed ``s``
comes from an independent Philox state keyed by (s, j) with counter b (one
bit generator per stream and run, its state set per block), so a batch is
bit-for-bit reproducible for fixed (seed, dt, n_paths) and any chunked
evaluation order.  Stream 0 drives the torus coordinate, stream 1
the observable (the independence the change of measure relies on), stream 2
stationary-start sampling.  Stepped paths take one block per 32 steps; with
constant coefficients the whole horizon's increments are exactly Gaussian,
so block 0 of each stream is drawn once.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._parallel import prefetched
from .discretize import operators_for
from .errors import DegenerateSpectrumError, SampleSizeError
from .fields import FourierField, TabulatedField, _periodic_interp, periodic_slope
from .model import EvaluationFrame, TorusDiffusionSpec
from .rate import rate_point
from .spectral import effective_diffusivity_core, solve_corrector, spectral_mu_prime

MAX_DT = 1e-2
_BLOCK_STEPS = 32
# The stepper's coefficient grid has at least this many cells.  Linear
# interpolation of a Fourier field of top harmonic K is then within
# (2 pi K)^2 / (8 m^2) * sum|coef| of the field (4.7e-6 for cos(2 pi x)).
_TABLE_MIN_CELLS = 1024


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


def _stream(seed: int, stream: int):
    """``at(block)``: the run's one Generator on a noise stream, its Philox
    state set to the key of (seed, stream), counter [0, 0, block, 0] and an
    empty buffer, as a Philox built with that key and counter starts;
    setting the state costs a quarter of building one."""
    key = np.random.SeedSequence(entropy=int(seed) & (2**63 - 1),
                                 spawn_key=(stream,)).generate_state(2, np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))

    def at(block: int) -> np.random.Generator:
        gen.bit_generator.state = {
            "bit_generator": "Philox", "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
            "state": {"counter": np.array([0, 0, block, 0], dtype=np.uint64), "key": key},
            "has_uint32": 0, "uinteger": 0}
        return gen

    return at


def _philox_normals(stream, block: int, shape) -> np.ndarray:
    out = np.empty(shape)
    stream(block).standard_normal(out=out.reshape(-1))
    return out


def _noise_block(seed: int, stream: int, block: int, shape) -> np.ndarray:
    return _philox_normals(_stream(seed, stream), block, shape)


def _is_const(field) -> bool:
    return isinstance(field, FourierField) and field.is_constant


def _check_run(t: float, dt: float, n_paths: int, min_paths: int = 1) -> None:
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt={dt} must be finite and positive")
    if not (math.isfinite(t) and t >= 0.0):
        raise ValueError(f"t={t} must be finite and nonnegative")
    if n_paths < min_paths:
        raise ValueError(f"n_paths={n_paths} must be at least {min_paths}")


def euler_maruyama(spec: TorusDiffusionSpec, t: float, dt: float, n_paths: int,
                   seed: int, *, x0: float = 0.0,
                   x_init: np.ndarray | None = None) -> TrajectoryBatch:
    """Euler-Maruyama stepping of the torus coordinate and the observable.

    The torus drift is V0 plus the Stratonovich correction (1/2) sum V_i V_i',
    which is the Ito form of dX = sum V_i(X) o dW_i + V0(X) dt; the observable
    steps with b(X) dt + sigma(X) dW~ from the independent stream.  Weak order
    one in dt.
    """
    if not isinstance(spec, TorusDiffusionSpec):
        raise TypeError("path simulation is defined for torus diffusions")
    _check_run(t, dt, n_paths)
    if dt > MAX_DT * (1 + 1e-12):
        raise ValueError(f"dt={dt} too large; the stepper requires dt <= {MAX_DT}")
    n_steps = round(t / dt)
    if abs(n_steps * dt - t) > 1e-9 * max(1.0, t):
        raise ValueError(f"t={t} must be an integer multiple of dt={dt}")

    if x_init is not None:
        X = np.asarray(x_init, dtype=float).copy()
        if X.shape != (n_paths,):
            raise ValueError("x_init must have one entry per path")
        x_start = X.copy()
    else:
        X = np.full(n_paths, float(x0))
        x_start = np.full(1, float(x0))
    Y = np.zeros(n_paths)

    if all(_is_const(f) for f in (*spec.fields_v, spec.drift_v0,
                                  spec.obs_drift_b, spec.obs_noise_sigma)):
        _advance_linear(spec, X, Y, n_steps, dt, seed)
    else:
        _advance_stepping(spec, X, Y, n_steps, dt, seed)
    X -= np.floor(X)
    return TrajectoryBatch(t=float(t), dt=float(dt), n_paths=int(n_paths),
                           seed=int(seed), x_initial=x_start, x_final=X, y_final=Y)


def _advance_linear(spec, X, Y, n_steps, dt, seed):
    """Constant coefficients make the increments over the whole horizon
    T = n_steps dt exactly Gaussian: X_T - X_0 = V0 T + sum V_i W_i(T) and
    Y_T = b T + sigma W~(T).  Block 0 of stream 0 gives one normal per field
    V_i and block 0 of stream 1 the observable's, each scaled by sqrt(T);
    the law is that of per-step Euler.  No steps draw no noise."""
    if n_steps == 0:
        return
    horizon = n_steps * dt
    scale = math.sqrt(horizon)
    xi = _noise_block(seed, 0, 0, (len(spec.fields_v), X.size))
    for i, f in enumerate(spec.fields_v):
        if f.const:
            X += (float(f.const) * scale) * xi[i]
    Y += (float(spec.obs_noise_sigma.const) * scale) * _noise_block(seed, 1, 0, (Y.size,))
    if spec.drift_v0.const:
        X += float(spec.drift_v0.const) * horizon
    if spec.obs_drift_b.const:
        Y += float(spec.obs_drift_b.const) * horizon


def _table_cells(fields) -> int:
    """Cells m of the stepper's coefficient grid: the smallest multiple of
    every tabulated field's size that is at least ``_TABLE_MIN_CELLS``, so a
    tabulated field is reproduced exactly up to rounding."""
    unit = math.lcm(1, *(f.n for f in fields if isinstance(f, TabulatedField)))
    return unit * -(-_TABLE_MIN_CELLS // unit)


def _grid_table(node_values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(value, slope) at the m + 1 nodes j / m; node m repeats node 0, so a
    position that rounds up to 1.0 reads the value at 0."""
    value = np.append(node_values, node_values[0])
    return value, np.append(np.diff(value), 0.0)


def _lookup(table, idx, frac, out, scratch):
    """Linear interpolation value[idx] + slope[idx] * frac, written to out."""
    table[1].take(idx, out=out, mode="clip")
    out *= frac
    out += table[0].take(idx, out=scratch, mode="clip")
    return out


def _advance_stepping(spec, X, Y, n_steps, dt, seed):
    """Per-step Euler with every non-constant coefficient read from one
    periodic grid table (linear interpolation, one cell lookup per step for
    all of them).  X is kept wrapped into [0, 1].  Noise blocks are drawn
    ahead on a worker thread when LDP_EXPAND_THREADS >= 2; the blocks and
    the result are the same for any thread count."""
    n_paths, k = X.size, len(spec.fields_v)
    sigma = spec.obs_noise_sigma
    v_scale = [float(f.const) if _is_const(f) else None for f in spec.fields_v]
    v_const = None not in v_scale
    m = _table_cells([f for f in (*spec.fields_v, spec.drift_v0, spec.obs_drift_b, sigma)
                      if not _is_const(f)])
    nodes = np.arange(m) / m

    # drift tables carry the factor dt; V_i and sigma tables multiply the noise
    x_shift, x_drift = 0.0, None
    if v_const and _is_const(spec.drift_v0):
        x_shift = float(spec.drift_v0.const) * dt
    else:
        x_drift = _grid_table((spec.drift_v0(nodes) + spec.stratonovich_correction(nodes)) * dt)
    v_tables = [None if s is not None else _grid_table(f(nodes))
                for f, s in zip(spec.fields_v, v_scale)]
    y_drift = None if _is_const(spec.obs_drift_b) else _grid_table(spec.obs_drift_b(nodes) * dt)
    y_noise = None if _is_const(sigma) else _grid_table(sigma(nodes))

    streams = _stream(seed, 0), _stream(seed, 1)
    sqdt = math.sqrt(dt)

    def draw(block):
        rows = min(_BLOCK_STEPS, n_steps - block * _BLOCK_STEPS)
        dwx = _philox_normals(streams[0], block, (rows, k, n_paths))
        dwx *= sqdt
        for i, s in enumerate(v_scale):
            if s is not None and s != 1.0:
                dwx[:, i, :] *= s
        if y_noise is None:
            # the observable stream is independent of X; with constant sigma
            # its block noise aggregates exactly into one normal
            dwy = _philox_normals(streams[1], block, (n_paths,))
            dwy *= float(sigma.const) * math.sqrt(rows * dt)
        else:
            dwy = _philox_normals(streams[1], block, (rows, n_paths))
            dwy *= sqdt
        return dwx, dwy

    X -= np.floor(X)
    frac, cell, term, scratch = (np.empty(n_paths) for _ in range(4))
    idx = np.empty(n_paths, dtype=np.intp)
    for dwx, dwy in prefetched(draw, range(-(-n_steps // _BLOCK_STEPS))):
        if y_noise is None:
            Y += dwy
        for r in range(dwx.shape[0]):
            # every coefficient reads the pre-step cell
            np.multiply(X, m, out=frac)
            np.floor(frac, out=cell)
            np.copyto(idx, cell, casting="unsafe")
            frac -= cell
            if y_drift is not None:
                Y += _lookup(y_drift, idx, frac, term, scratch)
            if y_noise is not None:
                _lookup(y_noise, idx, frac, term, scratch)
                term *= dwy[r]
                Y += term
            if x_drift is not None:
                X += _lookup(x_drift, idx, frac, term, scratch)
            elif x_shift:
                X += x_shift
            for i, table in enumerate(v_tables):
                if table is None:
                    X += dwx[r, i]
                else:
                    _lookup(table, idx, frac, term, scratch)
                    term *= dwx[r, i]
                    X += term
            np.floor(X, out=cell)
            X -= cell
    if _is_const(spec.obs_drift_b) and spec.obs_drift_b.const:
        Y += float(spec.obs_drift_b.const) * (n_steps * dt)


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
    dlng = periodic_slope(np.log(g))
    extra = ops.vv * dlng
    # eigensolver noise floor: drift this small is dynamically irrelevant
    if np.max(np.abs(extra)) < 1e-10:
        new_v0 = spec.drift_v0
    else:
        new_v0 = TabulatedField(tuple(np.asarray(spec.drift_v0(ops.x)) + extra))
    if _is_const(spec.obs_noise_sigma):
        new_b = spec.obs_drift_b.shifted(theta * float(spec.obs_noise_sigma.const) ** 2)
    else:
        new_b = TabulatedField(tuple(np.asarray(spec.obs_drift_b(ops.x)) + theta * ops.sigma2))
    return replace(spec, drift_v0=new_v0, obs_drift_b=new_b)


def estimate_tail_is(spec: TorusDiffusionSpec, frame: EvaluationFrame, a: float,
                     t: float, dt: float, n_paths: int, seed: int, *,
                     n: int | None = None) -> ISEstimate:
    """Importance-sampled tail estimate under the dynamics tilted by theta_a
    (``_estimate``); SampleSizeError when the effective sample size is
    below 10."""
    _check_run(t, dt, n_paths, min_paths=2)
    est = _estimate(spec, frame, a, t, dt, n_paths, seed, rate_point(spec, a, n=n).theta, n)
    if est.ess < 10.0:
        raise SampleSizeError(
            f"effective sample size {est.ess:.1f} < 10; use a shorter horizon or re-tune the tilt")
    return est


def estimate_tail_mc(spec: TorusDiffusionSpec, frame: EvaluationFrame, a: float,
                     t: float, dt: float, n_paths: int, seed: int, *,
                     n: int | None = None) -> ISEstimate:
    """Naive indicator-mean baseline: ``_estimate`` at theta = 0, where every
    hit weighs 1.  Zero hits are reported, not raised, so that rare-event
    failure is visible data."""
    _check_run(t, dt, n_paths, min_paths=2)
    return _estimate(spec, frame, a, t, dt, n_paths, seed, 0.0, n)


def _estimate(spec, frame, a, t, dt, n_paths, seed, theta, n) -> ISEstimate:
    """Weighted indicator mean of S_t >= a t over paths of the dynamics tilted
    by theta, each hit weighted by the change of measure
    e^{-theta Y_t + t mu(theta)} g(X_0)/g(X_t); at theta = 0 the dynamics are
    the model's and the weight is exactly 1 (mu(0) = 0, g = 1)."""
    ops = operators_for(spec, n)
    log_g = np.log(ops.perron(theta)[1])
    i0 = frame.index_on(ops.grid.n)
    batch = euler_maruyama(tilted_dynamics(spec, theta, n=n), t, dt, n_paths, seed,
                           x0=i0 * ops.dx)
    log_w = (-theta * batch.y_final + t * ops.mu(theta)
             + log_g[i0] - _periodic_interp(batch.x_final, log_g))
    hits = batch.y_final >= a * t
    w = np.where(hits, np.exp(log_w), 0.0)
    n_hits, wh = int(np.count_nonzero(hits)), w[hits]
    ess = float(np.sum(wh) ** 2 / np.sum(wh * wh)) if n_hits else 0.0
    return ISEstimate(p_hat=float(np.mean(w)), stderr=float(np.std(w, ddof=1) / np.sqrt(n_paths)),
                      ess=ess, theta=theta, n_paths=int(n_paths), n_hits=n_hits)


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
    for t in t_list:
        _check_run(t, dt, n_paths, min_paths=2)
    if not t_list:
        return DecorrelationReport(theta=theta, rows=())
    ops = operators_for(spec, n)
    _, g, psi = ops.perron(theta)
    if np.min(g) <= 0.0:
        raise DegenerateSpectrumError("tilted eigenfunction is not positive")
    dlng = periodic_slope(np.log(g))
    pi = psi * g * ops.weight
    pi = np.clip(pi, 0.0, None)
    pi = pi / pi.sum()
    x_init = _sample_stationary(pi, ops.dx, n_paths, seed)
    c_theta = spectral_mu_prime(ops, theta)
    tspec = tilted_dynamics(spec, theta, n=n)
    rows = []
    for t in sorted(t_list):
        batch = euler_maruyama(tspec, t, dt, n_paths, seed, x_init=x_init)
        vals = (batch.y_final - c_theta * t) * _periodic_interp(batch.x_final, dlng)
        stat = float(np.mean(vals) / t)
        stderr = float(np.std(vals, ddof=1) / np.sqrt(n_paths) / t)
        rows.append((t, stat, stderr))
    return DecorrelationReport(theta=theta, rows=tuple(rows))


def _sample_stationary(pi: np.ndarray, dx: float, n_paths: int, seed: int) -> np.ndarray:
    """Inverse-CDF sampling of the piecewise-constant tilted density."""
    cdf = np.concatenate([[0.0], np.cumsum(pi)])
    cdf[-1] = 1.0
    u = _stream(seed, 2)(0).random(n_paths)
    cell = np.searchsorted(cdf, u, side="right") - 1
    cell = np.clip(cell, 0, pi.size - 1)
    width = cdf[cell + 1] - cdf[cell]
    frac = np.where(width > 0, (u - cdf[cell]) / np.where(width > 0, width, 1.0), 0.5)
    return (cell + frac) * dx
