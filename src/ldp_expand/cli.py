"""Config ingestion, command dispatch, CSV reporting.

Commands: validate, rate, spectral, expand, simulate, verify-conditions,
report, emit-config.  Configs are strict-schema JSON; unknown keys are
rejected with their dotted path, and a flag is the config entry it names.
Every CSV carries a header comment with the hash of the effective config;
the timestamp line is the only nondeterministic byte.
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
from .discretize import operators_for
from .errors import ConfigError, LdpExpandError, ModelValidationError
from .fields import check_keys, config_integer, config_number, config_numbers, field_from_config
from .model import (DiscreteChainSpec, EvaluationFrame, ModelSpec,
                    TorusDiffusionSpec, validate_spec)

DEFAULTS = {
    "grid_n": 256,
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

_METHODS = ("naive", "tilted")  # simulate.method: plain Monte Carlo or the tilted sampler
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
        elif isinstance(val, dict) and isinstance(out[key], dict):
            merged = dict(val)
            merged.update(out[key])
            out[key] = merged
    return out


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
    unknown = set(raw).difference(DEFAULTS, ["model"])
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(sorted(unknown))}")
    if "model" not in raw:
        raise ConfigError("config needs a 'model' entry")
    cfg = _fill_defaults(raw)

    grid_n = _positive_int(cfg["grid_n"], "grid_n")
    spec, frame, model_grid_n = _parse_model(cfg["model"])
    if model_grid_n is not None:
        grid_n = model_grid_n
    try:
        frame.index_on(spec.n_states if isinstance(spec, DiscreteChainSpec) else grid_n)
    except ModelValidationError as exc:
        raise ConfigError(f"eval_frame.x0: {exc}") from None
    simulate = _simulate_section(cfg["simulate"])
    conditions = _condition_grids(cfg["conditions"])
    check_keys(cfg["expand"], DEFAULTS["expand"], "expand")
    expand = {"a": _finite(cfg["expand"]["a"], "expand.a")}
    tol = config_number(cfg["tol"], "tol")
    if not 0.0 < tol < 1.0:  # NaN and infinities fail the comparison too
        raise ConfigError(f"tol must be finite and in (0, 1), got {cfg['tol']!r}")
    report = validate_spec(spec, n=min(grid_n, 512))
    if not report.ok:
        raise ConfigError("model fails validation: " + "; ".join(report.violations))
    return RunConfig(
        spec=spec, frame=frame, grid_n=grid_n, tol=tol,
        order=_positive_int(cfg["order"], "order"), seed=config_integer(cfg["seed"], "seed"),
        output_dir=Path(cfg["output_dir"]),
        theta_grid=_grid(cfg["theta_grid"], "theta_grid"),
        a_grid=_grid(cfg["a_grid"], "a_grid"),
        t_grid=_grid(cfg["t_grid"], "t_grid"),
        simulate=simulate, conditions=conditions, expand=expand,
        raw=cfg)


def _positive_int(value, key: str) -> int:
    i = config_integer(value, key)
    if i <= 0:
        raise ConfigError(f"{key} must be positive, got {i}")
    return i


def _finite(value, key: str) -> float:
    x = config_number(value, key)
    if not np.isfinite(x):
        raise ConfigError(f"{key} must be finite, got {value!r}")
    return x


def _simulate_section(obj) -> dict:
    """simulate with typed entries; range checks are the simulator's."""
    check_keys(obj, DEFAULTS["simulate"], "simulate")
    sim = {key: _finite(obj[key], f"simulate.{key}") for key in ("a", "t", "dt")}
    sim["n_paths"] = _positive_int(obj["n_paths"], "simulate.n_paths")
    if obj["method"] not in _METHODS:
        raise ConfigError(f"simulate.method must be 'tilted' or 'naive', got {obj['method']!r}")
    return {**sim, "method": obj["method"]}


def _grid(obj, key: str) -> tuple[float, ...]:
    """A grid of finite numbers: a list, or a min/max/steps object."""
    if isinstance(obj, dict):
        check_keys(obj, {"min", "max", "steps", "scale"}, key, required={"min", "max"})
        lo = config_number(obj["min"], f"{key}.min")
        hi = config_number(obj["max"], f"{key}.max")
        steps = _positive_int(obj.get("steps", 9), f"{key}.steps")
        scale = obj.get("scale", "linear")
        if scale not in ("linear", "geometric"):
            raise ConfigError(f"{key}.scale must be 'linear' or 'geometric', got {scale!r}")
        geometric = scale == "geometric"
        if geometric and lo <= 0:
            raise ConfigError(f"{key}: geometric grids need min > 0")
        grid = tuple((np.geomspace if geometric else np.linspace)(lo, hi, steps))
    elif isinstance(obj, (list, tuple)):
        grid = config_numbers(obj, key)
    else:
        raise ConfigError(f"{key} must be a list or a min/max/steps object")
    if not np.all(np.isfinite(grid)):
        raise ConfigError(f"{key} entries must be finite, got {obj!r}")
    return grid


def _condition_grids(obj: dict) -> dict:
    """The condition suite's s and t grids: finite numbers, with a nonzero s."""
    check_keys(obj, DEFAULTS["conditions"], "conditions")
    grids = {key: _grid(obj[key], f"conditions.{key}") for key in ("s_grid", "t_grid")}
    if not any(grids["s_grid"]):
        raise ConfigError(f"conditions.s_grid needs a nonzero entry, got {obj['s_grid']!r}")
    return grids


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
        check_keys(obj, {"builtin", "eval_frame", "grid_n"}, "model")
        name = obj["builtin"]
        if name not in _BUILTIN_MODELS:
            raise ConfigError(f"unknown builtin model {name!r}; "
                              f"choose from {', '.join(sorted(_BUILTIN_MODELS))}")
        spec = _BUILTIN_MODELS[name]()
        return spec, _parse_frame(obj.get("eval_frame")), _model_grid_n(obj)
    kind = obj.get("kind")
    if kind == "torus_diffusion":
        check_keys(obj, _MODEL_KEYS_TORUS, "model")
        fields = obj.get("fields", {})
        check_keys(fields, {"V", "V0"}, "model.fields")
        observable = obj.get("observable", {})
        check_keys(observable, {"b", "sigma"}, "model.observable")
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
        check_keys(obj, _MODEL_KEYS_CHAIN, "model",
                   required={"transition", "increment_mean", "increment_var"})
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
    """The evaluation frame: an integer x0 is a grid or state index, any
    other finite number a torus position; ``parse_config_dict`` checks its
    range once the grid is known."""
    if obj is None:
        return EvaluationFrame()
    check_keys(obj, {"x0", "v"}, "eval_frame")
    x0 = obj.get("x0", 0)
    if isinstance(x0, bool) or not (isinstance(x0, int)
                                    or isinstance(x0, float) and np.isfinite(x0)):
        raise ConfigError(f"eval_frame.x0 must be an integer index or a finite position, "
                          f"got {x0!r}")
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


# ---------------------------------------------------------------------------
# Commands.

def run(command: str, config: RunConfig, *, force: bool = False) -> int:
    """Execute one subcommand against a parsed config; returns the exit code
    (0 success, 1 error, 2 condition-suite failure)."""
    handler = _COMMANDS.get(command)
    if handler is None:
        print(f"error: unknown command {command!r}", file=sys.stderr)
        return 1
    try:
        return handler(config, force=force)
    except (LdpExpandError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _cmd_validate(cfg: RunConfig, **_) -> int:
    # parse_config_dict has refused a model with violations; warnings remain
    report = validate_spec(cfg.spec, n=min(cfg.grid_n, 512))
    rows = [["warning", msg] for msg in report.warnings] or [["ok", "all invariants hold"]]
    write_csv(cfg.output_dir / "validate.csv", "validate", cfg.config_hash(),
              ["severity", "message"], rows)
    for severity, msg in rows:
        print(f"{severity}: {msg}")
    return 0


def _cmd_rate(cfg: RunConfig, **_) -> int:
    table = rate.rate_table(cfg.spec, cfg.a_grid, n=cfg.grid_n)
    rows = [[p.a, p.theta, p.rate, p.curvature] for p in table.points]
    write_csv(cfg.output_dir / "rate.csv", "rate", cfg.config_hash(),
              ["a", "theta_a", "I", "Isecond"], rows)
    for a, msg in table.failures:
        print(f"skipped a={a:g}: {msg}", file=sys.stderr)
    print(f"rate: wrote {len(rows)} rows to {cfg.output_dir / 'rate.csv'}")
    return 0


def _cmd_spectral(cfg: RunConfig, **_) -> int:
    rows = []
    ops = operators_for(cfg.spec, cfg.grid_n)
    for theta in cfg.theta_grid:
        d1, d2 = spectral.cgf_derivatives(cfg.spec, theta, n=cfg.grid_n)
        gap = spectral._gap_mu_scale(ops, ops.eigendata(float(theta)))
        rows.append([theta, spectral.cgf(cfg.spec, theta, n=cfg.grid_n), d1, d2, gap])
    write_csv(cfg.output_dir / "spectral.csv", "spectral", cfg.config_hash(),
              ["theta", "mu", "mu_prime", "mu_second", "gap"], rows)
    print(f"spectral: wrote {len(rows)} rows to {cfg.output_dir / 'spectral.csv'}")
    return 0


def _cmd_expand(cfg: RunConfig, force: bool) -> int:
    a, order = cfg.expand["a"], cfg.order
    if not force:
        theta_a = rate.solve_theta(cfg.spec, a, n=cfg.grid_n)
        pre = verify.quick_condition_check(cfg.spec, theta_a, n=cfg.grid_n, frame=cfg.frame)
        if not pre.passed:
            failed = ", ".join(v.name for v in pre.verdicts if not v.passed)
            print(f"error: condition pre-check failed ({failed}); rerun with --force to override",
                  file=sys.stderr)
            return 2
    curve = expansion.tail_curve(cfg.spec, cfg.frame, a, cfg.t_grid, n=cfg.grid_n, rel_tol=cfg.tol)
    fit = expansion.extract_coefficients(cfg.spec, cfg.frame, a, curve.t, order=order,
                                         n=cfg.grid_n, curve=curve)
    d0 = expansion.leading_coefficient(cfg.spec, cfg.frame, a, n=cfg.grid_n)
    rows = [[t, p, q, f] for t, p, q, f in
            zip(curve.t, curve.prob, curve.normalized, curve.flattened())]
    write_csv(cfg.output_dir / "expand.csv", "expand", cfg.config_hash(),
              ["t", "P", "exp(It)P", "sqrt(t)exp(It)P"], rows)
    fit_rows = [[a, order, k, c] for k, c in enumerate(fit.coefficients)]
    fit_rows.append([a, order, "residual", fit.residual])
    fit_rows.append([a, order, "condition", fit.condition])
    fit_rows.append([a, order, "D0_analytic", d0])
    write_csv(cfg.output_dir / "expand_fit.csv", "expand", cfg.config_hash(),
              ["a", "order", "quantity", "value"], fit_rows)
    print(f"expand: D0 fitted {fit.d0:.9g} vs analytic {d0:.9g} "
          f"({100 * abs(fit.d0 - d0) / d0:.3f}% apart)")
    return 0


def _cmd_simulate(cfg: RunConfig, **_) -> int:
    method, a, t, dt, n_paths = (cfg.simulate[k] for k in ("method", "a", "t", "dt", "n_paths"))
    estimate = simulate.estimate_tail_is if method == "tilted" else simulate.estimate_tail_mc
    start = time.perf_counter()
    est = estimate(cfg.spec, cfg.frame, a, t, dt, n_paths, cfg.seed, n=cfg.grid_n)
    wall = time.perf_counter() - start
    write_csv(cfg.output_dir / "simulate.csv", "simulate", cfg.config_hash(),
              ["method", "a", "t", "dt", "n_paths", "seed", "p_hat", "stderr", "ess", "wall_time"],
              [[method, a, t, dt, n_paths, cfg.seed, est.p_hat, est.stderr, est.ess, wall]])
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
            rp = rate.rate_point(cfg.spec, a, n=cfg.grid_n)
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
        t_ref = sim["t"]
        p_ref = expansion.exact_tail(cfg.spec, cfg.frame, a, t_ref, n=cfg.grid_n, rel_tol=cfg.tol)
        try:
            est = simulate.estimate_tail_is(cfg.spec, cfg.frame, a, t_ref, sim["dt"],
                                            sim["n_paths"], cfg.seed, n=cfg.grid_n)
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


# Flags that set one config entry, per command: flag -> (dotted key, argparse options).
_ENTRY_FLAGS = {
    "expand": {"a": ("expand.a", {"type": float}), "order": ("order", {"type": int})},
    "simulate": {"a": ("simulate.a", {"type": float}), "t": ("simulate.t", {"type": float}),
                 "dt": ("simulate.dt", {"type": float}),
                 "paths": ("simulate.n_paths", {"type": int}), "seed": ("seed", {"type": int}),
                 "method": ("simulate.method", {"choices": _METHODS})},
}
# Range flags --VAR-min/--VAR-max/--VAR-steps, which set VAR_grid: (VAR, spacing).
_RANGE_FLAGS = {"rate": ("a", np.linspace), "expand": ("t", np.geomspace)}


def _with_flags(raw: dict, args) -> dict:
    """A copy of a config with the entries the given flags name set."""
    out = {key: dict(val) if isinstance(val, dict) else val for key, val in raw.items()}
    if args.command in _RANGE_FLAGS:
        var, spacing = _RANGE_FLAGS[args.command]
        grid = _range_flags(args, var, spacing)
        if grid is not None:
            out[f"{var}_grid"] = [float(x) for x in grid]
    for flag, (key, _) in _ENTRY_FLAGS.get(args.command, {}).items():
        if getattr(args, flag) is not None:
            section, _, name = key.rpartition(".")
            (out[section] if section else out)[name] = getattr(args, flag)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ldp-expand",
        description="Rate functions and tail expansion coefficients for ergodic Markov models")
    sub = parser.add_subparsers(dest="command")
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=name != "emit-config")
        if name in _RANGE_FLAGS:
            var = _RANGE_FLAGS[name][0]
            for part, kind in (("min", float), ("max", float), ("steps", int)):
                p.add_argument(f"--{var}-{part}", type=kind)
        for flag, (_, options) in _ENTRY_FLAGS.get(name, {}).items():
            p.add_argument(f"--{flag}", **options)
        if name == "expand":
            p.add_argument("--force", action="store_true")

    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        if args.command == "emit-config" and args.config is None:
            print(json.dumps(default_config_dict(), sort_keys=True, indent=2))
            return 0
        cfg = parse_config(args.config)
        try:
            raw = _with_flags(cfg.raw, args)
        except ValueError as exc:
            print(f"usage error: {exc}", file=sys.stderr)
            return 1
        if raw != cfg.raw:  # the flags' entries are checked and hashed with the file's
            cfg = parse_config_dict(raw)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    return run(args.command, cfg, force=getattr(args, "force", False))


if __name__ == "__main__":
    sys.exit(main())
