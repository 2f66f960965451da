"""Independent oracles and whole-pipeline condition checking.

The chain oracle enumerates the joint law of (state, accumulated value) by
dynamic programming: lattice increments shift value indices exactly, and
Gaussian increments convolve analytically (cell masses against closed-form
normal CDF differences) with one Richardson extrapolation in the cell width.
Every condition verdict carries the numbers it was derived from.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._eigen import rqi_pair, top_eigen_data
from ._parallel import parallel_map
from .discretize import lattice_span, operators_for
from .errors import ConvergenceError, DegenerateSpectrumError, ModelValidationError
from .model import DiscreteChainSpec, EvaluationFrame, ModelSpec
from .spectral import (b3_certificate, b3_margins, convexity_profile,
                       second_divided_differences, spectral_envelope,
                       _certified_decay, _gap_mu_scale, _rowsum_norm, _semigroup)

MAX_ORACLE_STEPS = 60
MAX_ORACLE_CELLS = 1_000_000
# B3 holds when every margin is above this; so must a certified lower bound
B3_MARGIN_FLOOR = 1e-8


@dataclass(frozen=True)
class ChainTailOracle:
    """Exact (or Richardson-refined) distribution of S_n on a value grid."""

    n_steps: int
    values: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        total = float(np.sum(self.probs))
        if abs(total - 1.0) > 1e-12:
            raise ConvergenceError(f"oracle mass {total:.15f} deviates from 1 beyond 1e-12")

    def tail(self, y: float) -> float:
        return float(np.sum(self.probs[self.values >= y - 1e-9]))


def brute_force_chain_tail(chain: DiscreteChainSpec, n_steps: int, a: float, *,
                           x0: int = 0) -> float:
    """Exact P(S_n >= a n) by dynamic programming over (state, value)."""
    if n_steps < 1:
        raise ValueError("need at least one step")
    if n_steps > MAX_ORACLE_STEPS:
        raise ModelValidationError(f"oracle is desk-scale: n_steps <= {MAX_ORACLE_STEPS}")
    var = chain.variances()
    y = float(a) * n_steps
    if np.all(var == 0.0):
        oracle = _lattice_distribution(chain, n_steps, x0)
        return oracle.tail(y)
    if np.any(var == 0.0):
        raise ModelValidationError(
            "mixed deterministic/Gaussian increments are not supported by the DP oracle")
    coarse, fine = (_gaussian_tail_dp(chain, n_steps, x0, y, cells)
                    for cells in (2**18, 2**19))
    return float((4.0 * fine - coarse) / 3.0)


def chain_distribution(chain: DiscreteChainSpec, n_steps: int, *, x0: int = 0) -> ChainTailOracle:
    """Exact lattice distribution of S_n (deterministic increments only)."""
    if np.any(chain.variances() > 0.0):
        raise ModelValidationError("exact distribution tables require deterministic increments")
    return _lattice_distribution(chain, n_steps, x0)


def _lattice_distribution(chain: DiscreteChainSpec, n_steps: int, x0: int) -> ChainTailOracle:
    P = chain.transition_matrix()
    m = chain.means()
    base = float(np.min(m))
    span = lattice_span(m, base)
    if span == 0.0:
        values = np.array([base * n_steps])
        return ChainTailOracle(n_steps=n_steps, values=values, probs=np.array([1.0]))
    k = np.rint((m - base) / span).astype(int)
    if np.max(np.abs((m - base) - k * span)) > 1e-9:
        raise ModelValidationError("increments are not commensurate with a common lattice")
    kmax = int(np.max(k))
    width = n_steps * kmax + 1
    if chain.n_states * width > MAX_ORACLE_CELLS:
        raise ModelValidationError("value grid exceeds the desk-scale cell budget")
    dp = np.zeros((chain.n_states, width))
    dp[x0, 0] = 1.0
    for _ in range(n_steps):
        mixed = P.T @ dp
        new = np.zeros_like(dp)
        for j in range(chain.n_states):
            kj = k[j]
            if kj:
                new[j, kj:] = mixed[j, : width - kj]
            else:
                new[j] = mixed[j]
        dp = new
    probs = dp.sum(axis=0)
    values = base * n_steps + span * np.arange(width)
    keep = probs > 0.0
    return ChainTailOracle(n_steps=n_steps, values=values[keep], probs=probs[keep])


def _gaussian_tail_dp(chain: DiscreteChainSpec, n_steps: int, x0: int, y: float,
                      n_cells: int) -> float:
    # scipy.special is imported here, off the package import path
    from scipy.special import ndtr

    if n_cells > MAX_ORACLE_CELLS:
        raise ModelValidationError("value grid exceeds the desk-scale cell budget")
    P = chain.transition_matrix()
    m = chain.means()
    sd = np.sqrt(chain.variances())
    lo = n_steps * float(np.min(m)) - 12.0 * float(np.max(sd)) * np.sqrt(n_steps) - 1.0
    hi = n_steps * float(np.max(m)) + 12.0 * float(np.max(sd)) * np.sqrt(n_steps) + 1.0
    delta = (hi - lo) / n_cells
    centers = lo + delta * np.arange(n_cells)

    # circular convolution kernels; mass beyond the 12-sigma margin is < 1e-30
    offsets = np.fft.fftfreq(n_cells, d=1.0 / n_cells) * delta
    kernel_fft = []
    for j in range(chain.n_states):
        cell_mass = (ndtr((offsets + 0.5 * delta - m[j]) / sd[j])
                     - ndtr((offsets - 0.5 * delta - m[j]) / sd[j]))
        kernel_fft.append(np.fft.rfft(cell_mass))

    dp = np.zeros((chain.n_states, n_cells))
    # first step handled exactly from the point mass at value 0
    for j in range(chain.n_states):
        dp[j] = P[x0, j] * (ndtr((centers + 0.5 * delta - m[j]) / sd[j])
                            - ndtr((centers - 0.5 * delta - m[j]) / sd[j]))
    for _ in range(n_steps - 1):
        mixed = P.T @ dp
        for j in range(chain.n_states):
            dp[j] = np.fft.irfft(np.fft.rfft(mixed[j]) * kernel_fft[j], n=n_cells)
    probs = dp.sum(axis=0)
    # cells fully above y, plus the linear fraction of the straddling cell
    upper_edges = centers + 0.5 * delta
    full = upper_edges - delta >= y
    tail = float(np.sum(probs[full]))
    straddle = (~full) & (upper_edges > y)
    if np.any(straddle):
        tail += float(np.sum(probs[straddle] * (upper_edges[straddle] - y) / delta))
    return tail


# ---------------------------------------------------------------------------
# Condition suite.

@dataclass(frozen=True)
class ConditionVerdict:
    name: str
    passed: bool
    evidence: dict
    note: str = ""


@dataclass(frozen=True)
class ConditionReport:
    model: str
    verdicts: tuple[ConditionVerdict, ...]

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def verdict(self, name: str) -> ConditionVerdict:
        for v in self.verdicts:
            if v.name == name:
                return v
        raise KeyError(name)


def projector_time_independence(spec: ModelSpec, theta: float, t_list, *,
                                n: int | None = None) -> float:
    """Max deviation between the top spectral projector recomputed from the
    time-t semigroup matrix and the rank-one g (x) psi from time 1."""
    return _projector_deviation(operators_for(spec, n), theta, t_list)[0]


# e^{-k t gap} <= 1e-17 sets the number k of power steps; more than this many
# hand the time-t matrix to the dense eigensolve
POWER_STEP_DECADES = 17.0
MAX_POWER_STEPS = 3


def _projector_deviation(ops, theta: float, t_list) -> tuple[float, int]:
    """(max projector deviation over t_list, number of dense fallbacks).

    All times share one ``_semigroup`` call.  On a diffusion the top pair of
    each time-t matrix comes from ``_power_pair``, seeded by the cached
    time-1 pair; the dense ``top_eigen_data`` of the time-t matrix serves
    chains, and diffusions whenever the power steps are refused (counted)."""
    theta = float(theta)
    ts = [float(t) for t in t_list]
    if not all(1.0 <= t <= 2.0 for t in ts):
        raise ValueError("projector check samples t in [1, 2]")
    ed = ops.eigendata(theta)
    proj = np.outer(ed.g, ed.psi) * ops.weight
    mats = _semigroup(ops, theta, ts, ops.mu(theta))
    worst, dense = 0.0, 0
    for t in ts:
        pair = None if ops.is_chain else _power_pair(mats[t], ed, t, ops.weight)
        if pair is None:
            dense += not ops.is_chain  # chains are dense by design, not by fallback
            ed_t = top_eigen_data(mats[t], weight=ops.weight, sort="abs", positive=True)
            pair = ed_t.g, ed_t.psi
        proj_t = np.outer(*pair) * ops.weight
        worst = max(worst, float(np.max(np.abs(proj_t - proj))))
    return worst, dense


def _power_pair(M: np.ndarray, ed, t: float, weight: float):
    """Top (g, psi) of the time-t matrix M = exp(t (G - mu)) by two-sided power
    steps from the generator's top pair ``ed``: k steps shrink the seed's
    sub-dominant part by e^{-k t gap}, with k the least number reaching
    10^-POWER_STEP_DECADES.  None when k > MAX_POWER_STEPS or either vector
    leaves a residual above 1e-12 ||M||."""
    decay = t * ed.gap
    if not decay * MAX_POWER_STEPS >= POWER_STEP_DECADES * np.log(10.0):
        return None
    k = max(1, int(np.ceil(POWER_STEP_DECADES * np.log(10.0) / decay)))
    g, psi = ed.g, ed.psi
    for _ in range(k):
        g = M @ g
        g = g / np.max(np.abs(g))
        psi = psi @ M
        psi = psi / np.max(np.abs(psi))
    Mg = M @ g
    value = (psi @ Mg) / (psi @ g)
    tol = 1e-12 * _rowsum_norm(M)
    if not (np.max(np.abs(Mg - value * g)) <= tol
            and np.max(np.abs(psi @ M - value * psi)) <= tol):
        return None
    return g, psi / (np.sum(psi * g) * weight)


def run_condition_suite(spec: ModelSpec, theta_grid, s_grid, t_grid, *,
                        n: int | None = None, frame: EvaluationFrame | None = None,
                        label: str = "") -> ConditionReport:
    """Aggregate numeric checks of the spectral conditions; failures are
    verdicts, never exceptions.  An s grid with no nonzero finite entry, a
    non-finite s or t, or a theta grid with a repeated or non-finite value
    is a ValueError before any work."""
    svals = [float(s) for s in s_grid if s != 0]
    tvals = [float(t) for t in t_grid]
    if not svals or not np.all(np.isfinite(svals + tvals)):
        raise ValueError("the condition suite needs finite s and t grids with a nonzero s, "
                         f"got nonzero s {svals!r} and t {tvals!r}")
    thetas = [float(t) for t in theta_grid]
    if not np.all(np.isfinite(thetas)) or len(set(thetas)) < len(thetas):
        raise ValueError("the condition suite needs a theta grid of distinct finite values, "
                         f"got theta grid {thetas!r}")
    if not thetas:
        return ConditionReport(model=label or spec.kind, verdicts=())
    ops = operators_for(spec, n)
    frame = frame or EvaluationFrame()
    verdicts = [
        _check_b1_surrogate(ops, thetas),
        _check_b2(ops, thetas),
        _check_b3_suite(ops, thetas, svals),
        _check_decay(spec, thetas, svals, tvals, n),
        _check_projector(ops, thetas),
        _check_d3(spec, ops, thetas, frame, n),
    ]
    return ConditionReport(model=label or spec.kind, verdicts=tuple(verdicts))


def _check_b1_surrogate(ops, thetas) -> ConditionVerdict:
    """Analyticity surrogate: the top eigenvalue sampled on a small disc is
    reproduced by a degree-4 polynomial to 1e-8."""
    radius, degree = 0.05, 4
    worst = 0.0
    fallbacks = 0
    try:
        for th in thetas:
            zs = _disc_points(th, radius)
            vals, dense = _disc_values(ops, zs)
            fallbacks += dense
            dz = np.array(zs) - th
            design = np.column_stack([dz**p for p in range(degree + 1)])
            coef, *_ = np.linalg.lstsq(design, vals, rcond=None)
            resid = float(np.max(np.abs(design @ coef - vals)))
            worst = max(worst, resid)
    except DegenerateSpectrumError as exc:
        return ConditionVerdict("B1", False, {"residual": np.inf}, note=str(exc))
    return ConditionVerdict("B1", worst < 1e-8, {"residual": worst,
                                                 "disc_radius": radius, "degree": degree,
                                                 "dense_fallbacks": fallbacks})


def _disc_points(th: float, radius: float) -> list[complex]:
    """The centre th, then 8 points on the circle of radius 0.4 r and 8 on
    the circle of radius r, at the same angles."""
    zs = [complex(th, 0.0)]
    for r in (0.4 * radius, radius):
        zs += [th + r * np.exp(2j * np.pi * k / 8) for k in range(8)]
    return zs


def _disc_values(ops, zs) -> tuple[np.ndarray, int]:
    """Top eigenvalues at the real centre zs[0] and on two rings of 8 points
    (inner ring first), with the number of off-centre points solved densely.

    The centre is the cached ``eigendata``.  On a diffusion each inner-ring
    point continues the centre pair, and each outer-ring point the inner
    pair at its angle, by two-sided Rayleigh-quotient iteration on the
    banded G(z).  A pair is kept only when the iteration converged within
    half the centre gap of the centre value, i.e. on the top branch;
    otherwise the point is solved by the dense ``top_eigen_data``, as are all
    points of a chain."""
    centre = ops.eigendata(zs[0])
    vals = [complex(centre.value)]
    if ops.is_chain:
        vals += [complex(ops.eigendata(z).value) for z in zs[1:]]
        return np.array(vals), 0
    dense = 0
    seeds = [(centre.g, centre.psi)] * 8
    for ring in (zs[1:9], zs[9:]):
        for k, z in enumerate(ring):
            pair = rqi_pair(ops.operator(z), *seeds[k], ops.weight)
            if pair is None or not abs(pair[0] - centre.value) < 0.5 * centre.gap:
                ed = top_eigen_data(ops.tilted(z), weight=ops.weight, sort="real")
                pair = (ed.value, ed.g, ed.psi)
                dense += 1
            vals.append(complex(pair[0]))
            seeds[k] = pair[1:]
    return np.array(vals), dense


def _check_b2(ops, thetas) -> ConditionVerdict:
    """Positive top gaps at the real centres.  On a diffusion the evidence
    counts the centres that are the dense ``top_eigen_data`` rather than the
    banded pair (``dense_centres``); chains are dense by design, not counted."""
    gaps = {}
    try:
        for th in thetas:
            ed = ops.eigendata(th)
            gaps[th] = _gap_mu_scale(ops, ed)
    except DegenerateSpectrumError as exc:
        return ConditionVerdict("B2", False, {"gaps": gaps}, note=str(exc))
    ok = all(g > 0.0 for g in gaps.values())
    dense = 0 if ops.is_chain else sum(th in ops.dense_centres for th in gaps)
    return ConditionVerdict("B2", ok, {"gaps": gaps, "min_gap": min(gaps.values()),
                                       "dense_centres": dense})


def _check_b3_suite(ops, thetas, svals) -> ConditionVerdict:
    """B3 margins mu(theta) - max Re spec G(theta + i s) over the grid; the
    condition holds when every margin exceeds B3_MARGIN_FLOOR.

    On a diffusion a margin is the certified lower bound c s^2 of
    ``b3_certificate`` wherever c exists and c s^2 > B3_MARGIN_FLOOR.  Every
    other (theta, s) takes the dense ``b3_margins`` value, counted in
    ``dense_fallbacks``; chains are dense by design and not counted.  The
    certificates come from the cached Perron pairs in the calling thread;
    the dense sweeps are threaded, and the ordered collection keeps parallel
    and serial output identical."""
    bounds, dense_s = {}, {}
    for th in thetas:
        c = b3_certificate(ops, th)
        for s in svals:
            bound = c * s * s if c is not None else 0.0
            if bound > B3_MARGIN_FLOOR:
                bounds[(th, s)] = bound
            else:
                dense_s.setdefault(th, []).append(s)
    sweeps = list(dense_s.items())
    dense = {}
    for (th, _), rows in zip(sweeps, parallel_map(lambda item: b3_margins(ops, *item), sweeps)):
        for s, margin in rows:
            dense[(th, s)] = margin
    margins = {(th, s): bounds.get((th, s), dense.get((th, s)))
               for th in thetas for s in svals}
    min_margin = min(margins.values()) if margins else np.inf
    argmin = min(margins, key=margins.get) if margins else None
    return ConditionVerdict("B3", min_margin > B3_MARGIN_FLOOR,
                            {"min_margin": min_margin, "at": argmin, "margins": margins,
                             "certified_lower_bounds": len(bounds),
                             "dense_fallbacks": 0 if ops.is_chain else len(dense)})


def _check_decay(spec, thetas, svals, tvals, n) -> ConditionVerdict:
    """D1-2, certified: per-step norm decay 1 - epsilon of the complex-tilted
    semigroup for |s| >= K, one ``_certified_decay`` per theta.
    ``decay_profile`` measures the same (K, epsilon) with every s dense."""
    s_decay = [float(s) for s in svals if abs(s) >= 1.0] or [float(s) for s in svals]
    t_decay = [float(t) for t in tvals if 1.0 <= t <= 4.0] or [1.0, 2.0]
    ops = operators_for(spec, n)
    evidence = {}
    ok = True
    note = ""
    for th in thetas:
        try:
            K, eps, certified = _certified_decay(ops, th, s_decay, t_decay)
            evidence[th] = {"K": K, "epsilon": eps, "decay_rate": -np.log1p(-eps),
                            "certified_s": certified}
        except (ConvergenceError, DegenerateSpectrumError) as exc:
            evidence[th] = {"K": None, "epsilon": None, "certified_s": 0}
            ok = False
            note = str(exc)
    return ConditionVerdict("D1-2", ok, evidence, note=note)


def _check_projector(ops, thetas) -> ConditionVerdict:
    t_list = [1.0, 1.5, 2.0] if not ops.is_chain else [1, 2]
    residuals = {}
    fallbacks = 0
    ok = True
    note = ""
    for th in thetas:
        try:
            residuals[th], dense = _projector_deviation(ops, th, t_list)
            fallbacks += dense
        except DegenerateSpectrumError as exc:
            residuals[th] = None
            ok = False
            note = str(exc)
    ok = ok and all(r is not None and r < 1e-8 for r in residuals.values())
    return ConditionVerdict("D2", ok, {"residuals": residuals, "t_list": t_list,
                                       "dense_fallbacks": fallbacks}, note=note)


def _check_d3(spec, ops, thetas, frame, n) -> ConditionVerdict:
    evidence = {}
    ok = True
    note = ""
    if len(thetas) >= 3:
        try:
            dds = convexity_profile(spec, thetas, n=n)
        except DegenerateSpectrumError:
            # negative controls: fall back to the spectral envelope
            dds = second_divided_differences(
                thetas, [spectral_envelope(ops, th) for th in thetas])
            note = "convexity measured on the spectral envelope (degenerate top pair)"
        evidence["second_divided_differences"] = dds
        ok = all(dd > 0.0 for _, dd in dds)
    positivity = {}
    for th in thetas:
        try:
            ed = ops.eigendata(th)
            positivity[th] = float(frame.ell_pi_v(ed.g, ed.psi, ops.weight))
        except DegenerateSpectrumError as exc:
            positivity[th] = None
            ok = False
            note = str(exc)
    evidence["ell_pi_v"] = positivity
    ok = ok and all(v is not None and v > 0.0 for v in positivity.values())
    return ConditionVerdict("D3", ok, evidence, note=note)


def quick_condition_check(spec: ModelSpec, theta: float, *,
                          n: int | None = None,
                          frame: EvaluationFrame | None = None) -> ConditionReport:
    """Light pre-flight check used by the CLI before expansion commands."""
    theta = max(float(theta), 0.05)
    return run_condition_suite(spec, [0.0, 0.5 * theta, theta], [1.0, 5.0, 20.0],
                               [1.0, 2.0], n=n, frame=frame, label=f"quick@{theta:g}")
