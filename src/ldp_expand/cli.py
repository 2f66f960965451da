"""Config ingestion, command dispatch, CSV/SVG reporting.

Commands: validate, rate, spectral, expand, simulate, verify-conditions,
report, emit-config.  Configs are strict-schema JSON; unknown keys are
rejected with their dotted path.  Every CSV carries a header comment with
the config hash; the timestamp line is the only nondeterministic byte.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import expansion, model, rate, simulate, spectral, verify
from .errors import ConfigError, LdpExpandError
from .fields import config_integer, config_number, config_numbers, field_from_config
from .model import (DiscreteChainSpec, EvaluationFrame, ModelSpec,
                    TorusDiffusionSpec, validate_spec)

DEFAULTS = {
    "grid_n": 256,
    "theta_max": 8.0,
    "tol": 1e-6,
    "order": 4,
    "seed": 0,
    "output_dir": "ldp_out",
    "theta_grid": [0.0, 0.5, 1.0, 1.5, 2.0],
    "a_grid": [0.2, 0.4, 0.6, 0.8, 1.0],
    "t_grid": [16.0, 22.6, 32.0, 45.3, 64.0, 90.5, 128.0],
    "simulate": {"a": 1.0, "t": 16.0, "dt": 1e-3, "n_paths": 10000, "method": "tilted"},
    "conditions": {"s_grid": [0.1, 1.0, 5.0, 20.0, 50.0], "t_grid": [1.0, 1.5, 2.0]},
    "expand": {"a": 1.0},
}

_BUILTIN_MODELS = {
    "gaussian_baseline": model.gaussian_baseline,
    "mathieu": model.mathieu_model,
    "gradient_drift": model.gradient_drift_model,
    "two_state_pm1_chain": model.two_state_pm1_chain,
    "checkerboard_chain": model.checkerboard_chain,
    "noisy_two_state_chain": model.noisy_two_state_chain,
}


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration with defaults filled."""

    spec: ModelSpec
    frame: EvaluationFrame
    grid_n: int
    theta_max: float
    tol: float
    order: int
    seed: int
    output_dir: Path
    theta_grid: tuple[float, ...]
    a_grid: tuple[float, ...]
    t_grid: tuple[float, ...]
    simulate: dict
    conditions: dict
    expand: dict
    raw: dict = field(repr=False)

    def config_hash(self) -> str:
        return hashlib.sha256(_canonical_json(self.raw).encode()).hexdigest()[:12]


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def default_config_dict(kind: str = "gaussian_baseline") -> dict:
    cfg = {"model": {"builtin": kind}}
    return _fill_defaults(cfg)


def _fill_defaults(cfg: dict) -> dict:
    out = dict(cfg)
    for key, val in DEFAULTS.items():
        if key not in out:
            out[key] = json.loads(_canonical_json(val))  # deep copy of the default
        elif isinstance(val, dict):
            merged = dict(val)
            merged.update(out[key])
            out[key] = merged
    return out


_TOP_KEYS = {"model", "grid_n", "theta_max", "tol", "order", "seed", "output_dir",
             "theta_grid", "a_grid", "t_grid", "simulate", "conditions", "expand"}
_SIM_KEYS = {"a", "t", "dt", "n_paths", "method"}
_COND_KEYS = {"s_grid", "t_grid"}
_EXPAND_KEYS = {"a", "order"}
_MODEL_KEYS_TORUS = {"kind", "grid_n", "fields", "observable", "eval_frame"}
_MODEL_KEYS_CHAIN = {"kind", "transition", "increment_mean", "increment_var", "eval_frame"}


def parse_config(path: str | Path) -> RunConfig:
    """Load, default-fill, and strictly validate a JSON run config."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return parse_config_dict(raw)


def parse_config_dict(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(sorted(unknown))}")
    if "model" not in raw:
        raise ConfigError("config needs a 'model' entry")
    cfg = _fill_defaults(raw)

    grid_n = _positive_int(cfg["grid_n"], "grid_n")
    spec, frame, model_grid_n = _parse_model(cfg["model"])
    if model_grid_n is not None:
        grid_n = model_grid_n
    _check_keys(cfg["simulate"], _SIM_KEYS, "simulate")
    _check_keys(cfg["conditions"], _COND_KEYS, "conditions")
    _check_keys(cfg["expand"], _EXPAND_KEYS, "expand")
    tol = config_number(cfg["tol"], "tol")
    if not 0.0 < tol < 1.0:  # NaN and infinities fail the comparison too
        raise ConfigError(f"tol must be finite and in (0, 1), got {cfg['tol']!r}")
    theta_max = config_number(cfg["theta_max"], "theta_max")
    if not 0.0 < theta_max < np.inf:  # NaN fails the comparison too
        raise ConfigError(f"theta_max must be finite and positive, got {cfg['theta_max']!r}")
    report = validate_spec(spec, n=min(grid_n, 512))
    if not report.ok:
        raise ConfigError("model fails validation: " + "; ".join(report.violations))
    return RunConfig(
        spec=spec, frame=frame, grid_n=grid_n, theta_max=theta_max, tol=tol,
        order=_positive_int(cfg["order"], "order"), seed=config_integer(cfg["seed"], "seed"),
        output_dir=Path(cfg["output_dir"]),
        theta_grid=_grid(cfg["theta_grid"], "theta_grid"),
        a_grid=_grid(cfg["a_grid"], "a_grid"),
        t_grid=_grid(cfg["t_grid"], "t_grid"),
        simulate=cfg["simulate"], conditions=cfg["conditions"], expand=cfg["expand"],
        raw=cfg)


def _positive_int(value, key: str) -> int:
    i = config_integer(value, key)
    if i <= 0:
        raise ConfigError(f"{key} must be positive, got {i}")
    return i


def _grid(obj, key: str) -> tuple[float, ...]:
    if isinstance(obj, dict):
        extra = set(obj) - {"min", "max", "steps", "scale"}
        if extra:
            raise ConfigError(f"{key}: unknown grid key(s) {', '.join(sorted(extra))}")
        if "min" not in obj or "max" not in obj:
            raise ConfigError(f"{key}: grid objects need min and max")
        lo = config_number(obj["min"], f"{key}.min")
        hi = config_number(obj["max"], f"{key}.max")
        steps = _positive_int(obj.get("steps", 9), f"{key}.steps")
        if obj.get("scale", "linear") == "geometric":
            if lo <= 0:
                raise ConfigError(f"{key}: geometric grids need min > 0")
            return tuple(np.geomspace(lo, hi, steps))
        return tuple(np.linspace(lo, hi, steps))
    if isinstance(obj, (list, tuple)):
        return config_numbers(obj, key)
    raise ConfigError(f"{key} must be a list or a min/max/steps object")


def _check_keys(obj, allowed: set, where: str):
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {', '.join(sorted(unknown))}")


def _parse_model(obj) -> tuple[ModelSpec, EvaluationFrame, int | None]:
    if isinstance(obj, str):
        path = Path(obj)
        if not path.exists():
            raise ConfigError(f"model file {path} does not exist")
        try:
            obj = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"model file {path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError("model must be an object or a path to one")
    if "builtin" in obj:
        extra = set(obj) - {"builtin", "eval_frame", "grid_n"}
        if extra:
            raise ConfigError(f"model: unknown key(s) {', '.join(sorted(extra))}")
        name = obj["builtin"]
        if name not in _BUILTIN_MODELS:
            raise ConfigError(f"unknown builtin model {name!r}; "
                              f"choose from {', '.join(sorted(_BUILTIN_MODELS))}")
        spec = _BUILTIN_MODELS[name]()
        return spec, _parse_frame(obj.get("eval_frame")), _model_grid_n(obj)
    kind = obj.get("kind")
    if kind == "torus_diffusion":
        _check_keys(obj, _MODEL_KEYS_TORUS, "model")
        fields = obj.get("fields", {})
        _check_keys(fields, {"V", "V0"}, "model.fields")
        observable = obj.get("observable", {})
        _check_keys(observable, {"b", "sigma"}, "model.observable")
        v_list = fields.get("V", [1.0])
        if not isinstance(v_list, list):
            v_list = [v_list]
        spec = TorusDiffusionSpec(
            fields_v=tuple(field_from_config(v, f"model.fields.V[{i}]")
                           for i, v in enumerate(v_list)),
            drift_v0=field_from_config(fields.get("V0", 0.0), "model.fields.V0"),
            obs_drift_b=field_from_config(observable.get("b", 0.0), "model.observable.b"),
            obs_noise_sigma=field_from_config(observable.get("sigma", 1.0),
                                              "model.observable.sigma"))
        return spec, _parse_frame(obj.get("eval_frame")), _model_grid_n(obj)
    if kind == "discrete_chain":
        _check_keys(obj, _MODEL_KEYS_CHAIN, "model")
        for need in ("transition", "increment_mean", "increment_var"):
            if need not in obj:
                raise ConfigError(f"model.{need} is required for discrete chains")
        if not isinstance(obj["transition"], list):
            raise ConfigError("model.transition must be a list of rows")
        spec = DiscreteChainSpec(
            transition=tuple(config_numbers(row, "model.transition") for row in obj["transition"]),
            increment_mean=config_numbers(obj["increment_mean"], "model.increment_mean"),
            increment_var=config_numbers(obj["increment_var"], "model.increment_var"))
        return spec, _parse_frame(obj.get("eval_frame")), None
    raise ConfigError(f"model.kind must be 'torus_diffusion' or 'discrete_chain', got {kind!r}")


def _model_grid_n(obj: dict) -> int | None:
    grid_n = obj.get("grid_n")
    return None if grid_n is None else _positive_int(grid_n, "model.grid_n")


def _parse_frame(obj) -> EvaluationFrame:
    if obj is None:
        return EvaluationFrame()
    _check_keys(obj, {"x0", "v"}, "eval_frame")
    x0 = obj.get("x0", 0)
    v = obj.get("v")
    if v is not None:
        v = config_numbers(v, "eval_frame.v")
    return EvaluationFrame(x0=x0, v=v)


# ---------------------------------------------------------------------------
# Output writers.

def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, str):
        return x
    return format(float(x), ".15e")


def write_csv(path: Path, command: str, config_hash: str, header: list[str],
              rows: list[list]) -> None:
    lines = [f"# ldp-expand {command} config_hash={config_hash}",
             f"# generated={time.strftime('%Y-%m-%dT%H:%M:%S')}",
             ",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


def svg_line_plot(path: Path, x, series: dict[str, np.ndarray], *, title: str = "",
                  xlabel: str = "", ylabel: str = "", size=(640, 420)) -> None:
    """Self-contained polyline SVG writer (no plotting dependencies)."""
    width, height = size
    mleft, mright, mtop, mbot = 64, 16, 28, 44
    x = np.asarray(x, dtype=float)
    ys = {k: np.asarray(v, dtype=float) for k, v in series.items()}
    all_y = np.concatenate(list(ys.values()))
    x0, x1 = float(np.min(x)), float(np.max(x))
    y0, y1 = float(np.min(all_y)), float(np.max(all_y))
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    pad = 0.05 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad

    def sx(v):
        return mleft + (v - x0) / (x1 - x0) * (width - mleft - mright)

    def sy(v):
        return height - mbot - (v - y0) / (y1 - y0) * (height - mtop - mbot)

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e"]
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>',
             f'<rect x="{mleft}" y="{mtop}" width="{width - mleft - mright}" '
             f'height="{height - mtop - mbot}" fill="none" stroke="#444"/>']
    for k in range(5):
        xv = x0 + k * (x1 - x0) / 4
        yv = y0 + k * (y1 - y0) / 4
        parts.append(f'<text x="{sx(xv):.1f}" y="{height - mbot + 16}" font-size="11" '
                     f'text-anchor="middle">{xv:.4g}</text>')
        parts.append(f'<text x="{mleft - 6}" y="{sy(yv):.1f}" font-size="11" '
                     f'text-anchor="end">{yv:.4g}</text>')
    for i, (label, yvals) in enumerate(ys.items()):
        pts = " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(x, yvals))
        color = colors[i % len(colors)]
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>')
        parts.append(f'<text x="{width - mright - 8}" y="{mtop + 16 + 14 * i}" font-size="12" '
                     f'text-anchor="end" fill="{color}">{label}</text>')
    if title:
        parts.append(f'<text x="{width / 2}" y="16" font-size="13" text-anchor="middle">{title}</text>')
    if xlabel:
        parts.append(f'<text x="{width / 2}" y="{height - 8}" font-size="12" text-anchor="middle">{xlabel}</text>')
    if ylabel:
        parts.append(f'<text x="14" y="{height / 2}" font-size="12" text-anchor="middle" '
                     f'transform="rotate(-90 14 {height / 2})">{ylabel}</text>')
    parts.append("</svg>")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# Commands.

def run(command: str, config: RunConfig, *, force: bool = False,
        svg: bool = False, overrides: dict | None = None) -> int:
    """Execute one subcommand against a parsed config; returns the exit code
    (0 success, 1 error, 2 condition-suite failure)."""
    handler = _COMMANDS.get(command)
    if handler is None:
        print(f"error: unknown command {command!r}", file=sys.stderr)
        return 1
    try:
        return handler(config, force=force, svg=svg, overrides=overrides or {})
    except (LdpExpandError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _cmd_validate(cfg: RunConfig, **_) -> int:
    report = validate_spec(cfg.spec, n=min(cfg.grid_n, 512))
    rows = [["violation", msg] for msg in report.violations]
    rows += [["warning", msg] for msg in report.warnings]
    if not rows:
        rows = [["ok", "all invariants hold"]]
    write_csv(cfg.output_dir / "validate.csv", "validate", cfg.config_hash(),
              ["severity", "message"], rows)
    for severity, msg in rows:
        print(f"{severity}: {msg}")
    return 0 if report.ok else 1


def _cmd_rate(cfg: RunConfig, overrides: dict, **_) -> int:
    a_grid = overrides.get("a_grid", cfg.a_grid)
    table = rate.rate_table(cfg.spec, a_grid, n=cfg.grid_n, theta_max=cfg.theta_max)
    rows = [[p.a, p.theta, p.rate, p.curvature] for p in table.points]
    write_csv(cfg.output_dir / "rate.csv", "rate", cfg.config_hash(),
              ["a", "theta_a", "I", "Isecond"], rows)
    for a, msg in table.failures:
        print(f"skipped a={a:g}: {msg}", file=sys.stderr)
    print(f"rate: wrote {len(rows)} rows to {cfg.output_dir / 'rate.csv'}")
    return 0


def _cmd_spectral(cfg: RunConfig, **_) -> int:
    rows = []
    for theta in cfg.theta_grid:
        d1, d2 = spectral.cgf_derivatives(cfg.spec, theta, n=cfg.grid_n)
        triple = spectral.spectral_triple(cfg.spec, float(theta), n=cfg.grid_n)
        rows.append([theta, spectral.cgf(cfg.spec, theta, n=cfg.grid_n), d1, d2, triple.gap])
    write_csv(cfg.output_dir / "spectral.csv", "spectral", cfg.config_hash(),
              ["theta", "mu", "mu_prime", "mu_second", "gap"], rows)
    print(f"spectral: wrote {len(rows)} rows to {cfg.output_dir / 'spectral.csv'}")
    return 0


def _cmd_expand(cfg: RunConfig, force: bool, svg: bool, overrides: dict) -> int:
    a = float(overrides.get("a", cfg.expand.get("a", 1.0)))
    order = int(overrides.get("order", cfg.expand.get("order", cfg.order)))
    t_grid = overrides.get("t_grid", cfg.t_grid)
    if not force:
        theta_a = rate.solve_theta(cfg.spec, a, n=cfg.grid_n, theta_max=cfg.theta_max)
        pre = verify.quick_condition_check(cfg.spec, theta_a, n=cfg.grid_n, frame=cfg.frame)
        if not pre.passed:
            failed = ", ".join(v.name for v in pre.verdicts if not v.passed)
            print(f"error: condition pre-check failed ({failed}); rerun with --force to override",
                  file=sys.stderr)
            return 2
    curve = expansion.tail_curve(cfg.spec, cfg.frame, a, t_grid, n=cfg.grid_n, rel_tol=cfg.tol)
    fit = expansion.extract_coefficients(cfg.spec, cfg.frame, a, curve.t, order=order,
                                         n=cfg.grid_n, curve=curve)
    d0 = expansion.leading_coefficient(cfg.spec, cfg.frame, a, n=cfg.grid_n)
    flat = curve.flattened()
    rows = [[t, p, q, f] for t, p, q, f in zip(curve.t, curve.prob, curve.normalized, flat)]
    write_csv(cfg.output_dir / "expand.csv", "expand", cfg.config_hash(),
              ["t", "P", "exp(It)P", "sqrt(t)exp(It)P"], rows)
    fit_rows = [[a, order, k, c] for k, c in enumerate(fit.coefficients)]
    fit_rows.append([a, order, "residual", fit.residual])
    fit_rows.append([a, order, "condition", fit.condition])
    fit_rows.append([a, order, "D0_analytic", d0])
    write_csv(cfg.output_dir / "expand_fit.csv", "expand", cfg.config_hash(),
              ["a", "order", "quantity", "value"], fit_rows)
    if svg:
        svg_line_plot(cfg.output_dir / "expand.svg", 1.0 / np.asarray(curve.t),
                      {"sqrt(t) exp(It) P": flat, "D0 analytic": np.full(len(curve.t), d0)},
                      title=f"normalized tail flattening at a={a:g}",
                      xlabel="1/t", ylabel="sqrt(t) exp(It) P")
    print(f"expand: D0 fitted {fit.d0:.9g} vs analytic {d0:.9g} "
          f"({100 * abs(fit.d0 - d0) / d0:.3f}% apart)")
    return 0


def _cmd_simulate(cfg: RunConfig, overrides: dict, **_) -> int:
    sim = dict(cfg.simulate)
    sim.update({k: v for k, v in overrides.items() if v is not None})
    a, t = float(sim["a"]), float(sim["t"])
    dt, n_paths = float(sim["dt"]), int(sim["n_paths"])
    method = sim.get("method", "tilted")
    seed = int(overrides.get("seed", cfg.seed))
    start = time.perf_counter()
    if method == "tilted":
        est = simulate.estimate_tail_is(cfg.spec, cfg.frame, a, t, dt, n_paths, seed, n=cfg.grid_n)
    elif method == "naive":
        est = simulate.estimate_tail_mc(cfg.spec, cfg.frame, a, t, dt, n_paths, seed, n=cfg.grid_n)
    else:
        raise ConfigError(f"simulate.method must be 'tilted' or 'naive', got {method!r}")
    wall = time.perf_counter() - start
    write_csv(cfg.output_dir / "simulate.csv", "simulate", cfg.config_hash(),
              ["method", "a", "t", "dt", "n_paths", "seed", "p_hat", "stderr", "ess", "wall_time"],
              [[method, a, t, dt, n_paths, seed, est.p_hat, est.stderr, est.ess, wall]])
    print(f"simulate[{method}]: p_hat={est.p_hat:.6e} stderr={est.stderr:.2e} "
          f"ess={est.ess:.0f} hits={est.n_hits}")
    return 0


def _cmd_verify_conditions(cfg: RunConfig, **_) -> int:
    report = verify.run_condition_suite(
        cfg.spec, cfg.theta_grid, cfg.conditions["s_grid"], cfg.conditions["t_grid"],
        n=cfg.grid_n, frame=cfg.frame)
    rows = []
    for v in report.verdicts:
        evidence = _canonical_json(_jsonable(v.evidence))
        rows.append([v.name, "pass" if v.passed else "FAIL", evidence.replace(",", ";")])
        print(f"{v.name:5s} {'pass' if v.passed else 'FAIL'}  {v.note}")
    write_csv(cfg.output_dir / "conditions.csv", "verify-conditions", cfg.config_hash(),
              ["condition", "verdict", "evidence"], rows)
    return 0 if report.passed else 2


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if np.isfinite(v) else repr(v)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def _cmd_report(cfg: RunConfig, **_) -> int:
    sim = cfg.simulate
    rows = []
    nan = float("nan")
    for a in cfg.a_grid:
        try:
            rp = rate.rate_point(cfg.spec, a, n=cfg.grid_n, theta_max=cfg.theta_max)
        except LdpExpandError as exc:
            print(f"report: skipped a={a:g}: {exc}", file=sys.stderr)
            continue
        d0 = expansion.leading_coefficient(cfg.spec, cfg.frame, a, n=cfg.grid_n)
        d_fit = [nan] * 4
        try:
            curve = expansion.tail_curve(cfg.spec, cfg.frame, a, cfg.t_grid,
                                         n=cfg.grid_n, rel_tol=cfg.tol)
            fit = expansion.extract_coefficients(cfg.spec, cfg.frame, a, curve.t,
                                                 order=cfg.order, n=cfg.grid_n, curve=curve)
            d_fit = list(fit.coefficients[:4]) + [nan] * (4 - len(fit.coefficients[:4]))
        except LdpExpandError as exc:
            # an unresolvable fit at this horizon span is reported, not fatal
            print(f"report: no coefficient fit at a={a:g}: {exc}", file=sys.stderr)
        t_ref = float(sim["t"])
        p_ref = expansion.exact_tail(cfg.spec, cfg.frame, a, t_ref, n=cfg.grid_n, rel_tol=cfg.tol)
        try:
            est = simulate.estimate_tail_is(cfg.spec, cfg.frame, a, t_ref, float(sim["dt"]),
                                            int(sim["n_paths"]), cfg.seed, n=cfg.grid_n)
            p_is, p_se, ess = est.p_hat, est.stderr, est.ess
        except LdpExpandError as exc:
            print(f"report: no IS estimate at a={a:g}: {exc}", file=sys.stderr)
            p_is = p_se = ess = nan
        rel = abs(d_fit[0] - d0) / d0 if d_fit[0] == d_fit[0] else nan
        rows.append([a, rp.theta, rp.rate, rp.curvature, d0, d_fit[0], rel,
                     *d_fit[1:4], p_ref, p_is, p_se, ess])
    write_csv(cfg.output_dir / "report.csv", "report", cfg.config_hash(),
              ["a", "theta_a", "I", "Isecond", "D0_analytic", "D0_fit", "D0_rel_diff",
               "D1_fit", "D2_fit", "D3_fit", "p_exact", "p_is", "p_is_stderr", "ess"], rows)
    print(f"report: wrote {len(rows)} rows to {cfg.output_dir / 'report.csv'}")
    return 0


def _cmd_emit_config(cfg: RunConfig, **_) -> int:
    print(json.dumps(cfg.raw, sort_keys=True, indent=2))
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "rate": _cmd_rate,
    "spectral": _cmd_spectral,
    "expand": _cmd_expand,
    "simulate": _cmd_simulate,
    "verify-conditions": _cmd_verify_conditions,
    "report": _cmd_report,
    "emit-config": _cmd_emit_config,
}


def _range_flags(args, var: str, spacing) -> tuple[float, ...] | None:
    """The grid of --VAR-min, --VAR-max and --VAR-steps (default 9 points),
    None when none of them is given; ValueError naming the flag when the
    range is half given or its step count is not positive."""
    lo, hi, steps = (getattr(args, f"{var}_{part}") for part in ("min", "max", "steps"))
    if lo is None and hi is None and steps is None:
        return None
    for value, part in ((lo, "min"), (hi, "max")):
        if value is None:
            raise ValueError(f"--{var}-{part} is required with the other --{var}-* flags")
    if steps is None:
        steps = 9
    elif steps < 1:
        raise ValueError(f"--{var}-steps must be a positive integer, got {steps}")
    try:
        return tuple(spacing(lo, hi, steps))
    except ValueError as exc:
        raise ValueError(f"--{var}-min/--{var}-max: {exc}") from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ldp-expand",
        description="Rate functions and tail expansion coefficients for ergodic Markov models")
    sub = parser.add_subparsers(dest="command")
    for name in _COMMANDS:
        p = sub.add_parser(name)
        if name == "emit-config":
            p.add_argument("--config")
        else:
            p.add_argument("--config", required=True)
        if name == "rate":
            p.add_argument("--a-min", type=float)
            p.add_argument("--a-max", type=float)
            p.add_argument("--a-steps", type=int)
        if name == "expand":
            p.add_argument("--a", type=float)
            p.add_argument("--t-min", type=float)
            p.add_argument("--t-max", type=float)
            p.add_argument("--t-steps", type=int)
            p.add_argument("--order", type=int)
            p.add_argument("--force", action="store_true")
            p.add_argument("--svg", action="store_true")
        if name == "simulate":
            p.add_argument("--a", type=float)
            p.add_argument("--t", type=float)
            p.add_argument("--dt", type=float)
            p.add_argument("--paths", type=int)
            p.add_argument("--seed", type=int)
            p.add_argument("--method", choices=["naive", "tilted"])

    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        if args.command == "emit-config" and args.config is None:
            print(json.dumps(default_config_dict(), sort_keys=True, indent=2))
            return 0
        cfg = parse_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    overrides: dict = {}
    try:
        if args.command == "rate":
            grid = _range_flags(args, "a", np.linspace)
            if grid is not None:
                overrides["a_grid"] = grid
        if args.command == "expand":
            grid = _range_flags(args, "t", np.geomspace)
            if grid is not None:
                overrides["t_grid"] = grid
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    if args.command == "expand":
        if args.a is not None:
            overrides["a"] = args.a
        if args.order is not None:
            overrides["order"] = args.order
    if args.command == "simulate":
        for key, val in (("a", args.a), ("t", args.t), ("dt", args.dt),
                         ("n_paths", args.paths), ("seed", args.seed), ("method", args.method)):
            if val is not None:
                overrides[key] = val
    return run(args.command, cfg,
               force=getattr(args, "force", False),
               svg=getattr(args, "svg", False), overrides=overrides)


if __name__ == "__main__":
    sys.exit(main())
