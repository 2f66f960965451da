"""One cold process of a benchmark workload.

    python3 perfbench/child.py --workload NAME --seed N [--trace-file F] [--setup-only]
                               [--p-ref P] [--reference]

Times the set-up (import of ``ldp_expand`` plus the first workspace build
for the workload's model), then the workload's operations, then checks every
output against ``oracle`` or against a property the method must have.  The
checks run outside the timed regions.  The last line of standard output is
one JSON object.  ``run.py`` starts one such process per repetition, so
every repetition pays the cold-cache cost a command-line user pays.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

MATHIEU_N = 256
MATHIEU_A_GRID = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
TAIL_A, TAIL_T = 0.3, 30.0
EXPAND_TS = tuple(50.0 * 2 ** (k / 2) for k in range(7))
XI_THETAS = (0.0, 0.5, 1.0)
SWEEP_NS = (512,)
IS_DT, IS_PATHS = 1e-3, 1000
IS_ESS_FLOOR = 0.1 * IS_PATHS
Z_MAX = 4.0
# criterion 6's grids; n = 128 rather than criterion 6's 256 keeps a
# repetition near 3 s, so a run holds enough cold repetitions for a steady median
COND_N = 128
COND_THETAS = (0.0, 0.5, 1.0)
COND_S = (0.1, 1.0, 5.0, 20.0, 50.0)
COND_T = (1.0, 1.5, 2.0)
GAUSS_N = 64
GAUSS_A_GRID = (0.4, 0.6, 0.8, 1.0)  # 0.2 fails its 1% fit gate on the default t-grid
GAUSS_PATHS = 10000

# Tolerances against the continuum Mathieu oracle: about eight times the
# O(dx^2) discrepancy measured at n = 256 (theta 1.4e-6, I 4e-7, I'' 2.4e-6,
# D0 2.5e-6, B2 gap 5e-5 relative); it shrinks fourfold per doubling of n.
TOL_THETA = 1e-5
TOL_RATE = 2e-6
TOL_CURV_REL = 2e-5
TOL_D0_REL = 2e-5
TOL_GAP_REL_256 = 2e-4


def tol_tail_rel(t: float) -> float:
    """Tail probabilities carry the rate error times t: measured 4.8e-6 at
    t = 30 and 4.3e-5 at t = 400 against the Hill-matrix oracle."""
    return 1e-6 * (5.0 + 0.5 * t)


class Run:
    """Operations attempted, operations failed, and timed wall per group.

    An operation fails when it raises ``LdpExpandError`` or ``ValueError``,
    when a CLI command exits nonzero, or when one of its output checks fails.
    """

    def __init__(self, error_types):
        self.error_types = error_types
        self.attempted = 0
        self.bad: dict[str, str] = {}
        self.wrong = False
        self.wall = 0.0
        self.cpu = 0.0
        self.groups: dict[str, float] = {}

    def op(self, name: str, group: str, fn):
        self.attempted += 1
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            out = fn()
        except self.error_types as exc:
            self.bad[name] = f"{type(exc).__name__}: {exc}"
            out = None
        elapsed = time.perf_counter() - start
        self.wall += elapsed
        self.cpu += time.process_time() - cpu_start
        self.groups[group] = self.groups.get(group, 0.0) + elapsed
        return out

    def check(self, name: str, ok: bool, detail: str):
        if not ok:
            self.wrong = True
            self.bad.setdefault(name, f"check failed: {detail}")


def _close(x: float, ref: float, *, abs_tol: float = 0.0, rel_tol: float = 0.0) -> bool:
    return abs(x - ref) <= max(abs_tol, rel_tol * abs(ref))


# ---------------------------------------------------------------------------
# Workloads.  Each takes (lx, run, args) and returns extra figures.

def mathieu_tails(lx, run: Run, args) -> dict:
    import numpy as np

    import oracle
    from ldp_expand import discretize

    m, frame = lx.mathieu_model(), lx.EvaluationFrame()
    table = run.op("rate_table", "rate_table_s",
                   lambda: lx.rate_table(m, MATHIEU_A_GRID, n=MATHIEU_N))
    p_tail = run.op("exact_tail", "exact_tail_s",
                    lambda: lx.exact_tail(m, frame, TAIL_A, TAIL_T, n=MATHIEU_N, rel_tol=1e-6))
    curve = run.op("tail_curve", "expansion_s",
                   lambda: lx.tail_curve(m, frame, TAIL_A, EXPAND_TS, n=MATHIEU_N))
    # without a curve the fit computes its own, so every repetition attempts
    # the same operations
    fit = run.op("extract_coefficients", "expansion_s",
                 lambda: lx.extract_coefficients(m, frame, TAIL_A, EXPAND_TS, order=4,
                                                 n=MATHIEU_N, curve=curve))
    d0 = run.op("leading_coefficient", "expansion_s",
                lambda: lx.leading_coefficient(m, frame, TAIL_A, n=MATHIEU_N))
    xis = {th: run.op(f"xi@{th:g}", "xi_s",
                      lambda th=th: lx.effective_diffusivity(m, th, n=MATHIEU_N))
           for th in XI_THETAS}
    sweep = {}
    for n in SWEEP_NS:
        sweep[n] = (run.op(f"rate_point@{n}", "size_sweep_s",
                           lambda n=n: lx.rate_point(m, TAIL_A, n=n)),
                    run.op(f"leading_coefficient@{n}", "size_sweep_s",
                           lambda n=n: lx.leading_coefficient(m, frame, TAIL_A, n=n)))

    # -- checks (untimed) --
    d0_ref = oracle.mathieu_d0(TAIL_A)
    p_refs = oracle.mathieu_tail(TAIL_A, (TAIL_T, *EXPAND_TS))
    rp_256 = None
    if table is not None:
        ops = discretize.operators_for(m, MATHIEU_N)
        run.check("rate_table", not table.failures, f"failures {table.failures}")
        run.check("rate_table", len(table.points) == len(MATHIEU_A_GRID), "missing rows")
        for p in table.points:
            ref = oracle.mathieu_rate_point(p.a)
            run.check("rate_table", _close(p.theta, ref["theta"], abs_tol=TOL_THETA),
                      f"theta_a({p.a}) {p.theta!r} vs {ref['theta']!r}")
            run.check("rate_table", _close(p.rate, ref["rate"], abs_tol=TOL_RATE),
                      f"I({p.a}) {p.rate!r} vs {ref['rate']!r}")
            run.check("rate_table", _close(p.curvature, ref["curvature"], rel_tol=TOL_CURV_REL),
                      f"I''({p.a}) {p.curvature!r} vs {ref['curvature']!r}")
            resid = p.duality_residual(ops.mu(p.theta))
            run.check("rate_table", resid < 1e-10, f"duality residual {resid:.3e} at a={p.a}")
            if p.a == TAIL_A:
                rp_256 = p
    if d0 is not None:
        run.check("leading_coefficient", _close(d0, d0_ref, rel_tol=TOL_D0_REL),
                  f"D0 {d0!r} vs {d0_ref!r}")
    if curve is not None:
        flat = curve.flattened()
        for t, p, ref in zip(curve.t, curve.prob, p_refs[1:]):
            run.check("tail_curve", _close(p, ref, rel_tol=tol_tail_rel(t)),
                      f"P at t={t:g}: {p!r} vs {ref!r}")
        run.check("tail_curve", bool(np.all(np.diff(flat) > 0)), "flattened curve not increasing")
        run.check("tail_curve", bool(np.all(flat < d0_ref)), "flattened curve reaches D0")
    if fit is not None:
        run.check("extract_coefficients", _close(fit.d0, d0_ref, rel_tol=0.01),
                  f"fitted D0 {fit.d0!r} vs {d0_ref!r}")
    if p_tail is not None:
        run.check("exact_tail", _close(p_tail, p_refs[0], rel_tol=tol_tail_rel(TAIL_T)),
                  f"P={p_tail!r} vs {p_refs[0]!r}")
        if rp_256 is not None:
            flat30 = math.sqrt(TAIL_T) * math.exp(rp_256.rate * TAIL_T) * p_tail
            run.check("exact_tail", flat30 < d0_ref, f"sqrt(t) e^(It) P = {flat30!r} >= D0")
            if curve is not None:
                # the flattened curve increases in t, so t = 30 lies below t = 50
                run.check("exact_tail", flat30 < curve.flattened()[0],
                          f"sqrt(t) e^(It) P = {flat30!r} at t=30 exceeds its t=50 value")
    for th, xi in xis.items():
        if xi is not None:
            ref = oracle.mathieu_mu_second(th)
            run.check(f"xi@{th:g}", _close(xi, ref, rel_tol=5e-3), f"Xi({th}) {xi!r} vs mu'' {ref!r}")
    errors = []
    if rp_256 is not None:
        errors.append(TAIL_A * rp_256.theta - rp_256.rate - oracle.mathieu_mu(rp_256.theta))
    ref = oracle.mathieu_rate_point(TAIL_A)
    for n, (rp, d0_n) in sweep.items():
        if rp is not None:
            name = f"rate_point@{n}"
            run.check(name, _close(rp.theta, ref["theta"], abs_tol=TOL_THETA), f"theta {rp.theta!r}")
            run.check(name, _close(rp.rate, ref["rate"], abs_tol=TOL_RATE), f"I {rp.rate!r}")
            run.check(name, _close(rp.curvature, ref["curvature"], rel_tol=TOL_CURV_REL),
                      f"I'' {rp.curvature!r}")
            errors.append(TAIL_A * rp.theta - rp.rate - oracle.mathieu_mu(rp.theta))
        if d0_n is not None:
            run.check(f"leading_coefficient@{n}", _close(d0_n, d0_ref, rel_tol=TOL_D0_REL),
                      f"D0 {d0_n!r} vs {d0_ref!r}")
    ratios = [e0 / e1 if e1 else math.inf for e0, e1 in zip(errors, errors[1:])]
    if len(errors) == 1 + len(SWEEP_NS):
        for n, r in zip(SWEEP_NS, ratios):
            run.check(f"rate_point@{n}", abs(r - 4.0) <= 0.2, f"mu error ratio {r!r} at n={n}")
    return {"mu_error_ratios": ratios}


def mathieu_is(lx, run: Run, args) -> dict:
    m, frame = lx.mathieu_model(), lx.EvaluationFrame()
    est = run.op("estimate_tail_is", "is_s",
                 lambda: lx.estimate_tail_is(m, frame, TAIL_A, TAIL_T, IS_DT, IS_PATHS,
                                             args.seed, n=MATHIEU_N))
    extra = {}
    if est is not None:
        path_steps = IS_PATHS * round(TAIL_T / IS_DT)
        extra = {"is_path_steps_per_s": path_steps / run.groups["is_s"],
                 "is_ess_per_s": est.ess / run.groups["is_s"],
                 "p_hat": est.p_hat, "stderr": est.stderr, "ess": est.ess}
        run.check("estimate_tail_is", est.ess > IS_ESS_FLOOR,
                  f"ESS {est.ess:.1f} <= floor {IS_ESS_FLOOR:g}")
        if args.p_ref is None:
            run.check("estimate_tail_is", False, "no exact_tail reference")
        else:
            z = abs(est.p_hat - args.p_ref) / est.stderr
            extra["z"] = z
            run.check("estimate_tail_is", z < Z_MAX, f"z-score {z:.2f} against exact_tail")
    return extra


def mathieu_conditions(lx, run: Run, args) -> dict:
    import oracle

    m = lx.mathieu_model()
    rep = run.op("run_condition_suite", "conditions_s",
                 lambda: lx.run_condition_suite(m, COND_THETAS, COND_S, COND_T,
                                                n=COND_N, label="mathieu"))
    neg = run.op("negative_control", "conditions_s",
                 lambda: lx.run_condition_suite(lx.checkerboard_chain(), (0.2, 0.5, 1.0),
                                                (0.5, math.pi), (1, 2), label="checkerboard"))
    if rep is not None:
        verdicts = {v.name: v.passed for v in rep.verdicts}
        run.check("run_condition_suite",
                  sorted(verdicts) == sorted(("B1", "B2", "B3", "D1-2", "D2", "D3"))
                  and all(verdicts.values()), f"verdicts {verdicts}")
        gaps = rep.verdict("B2").evidence.get("gaps", {})
        for th in COND_THETAS:
            ref = oracle.mathieu_gap(th)
            got = gaps.get(th, math.nan)
            tol = TOL_GAP_REL_256 * (256 / COND_N) ** 2
            run.check("run_condition_suite", _close(got, ref, rel_tol=tol),
                      f"B2 gap at theta={th}: {got!r} vs {ref!r}")
    if neg is not None:
        run.check("negative_control", not neg.verdict("B3").passed, "checkerboard passes B3")
    return {}


def _gaussian_config(out_dir: str, seed: int) -> dict:
    return {"model": {"builtin": "gaussian_baseline"}, "grid_n": GAUSS_N, "order": 6,
            "seed": seed, "a_grid": list(GAUSS_A_GRID), "output_dir": out_dir,
            "simulate": {"a": 1.0, "t": 16.0, "dt": 1e-3, "n_paths": GAUSS_PATHS}}


CLI_COMMANDS = (
    ("rate", []),
    ("spectral", []),
    ("expand", ["--a", "1", "--order", "6", "--t-min", "16", "--t-max", "256"]),
    ("simulate", []),
    ("verify-conditions", []),
    ("report", []),
)


def gaussian_cli(lx, run: Run, args) -> dict:
    out_dir = os.path.join(".perfbench_out", f"cli-{os.getpid()}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    cfg_path = os.path.join(out_dir, "config.json")
    with open(cfg_path, "w") as fh:
        json.dump(_gaussian_config(out_dir, args.seed), fh)

    def command(name, extra):
        argv = [name, "--config", cfg_path, *extra]
        if args.trace_file:
            trace_out = os.path.join(out_dir, f"trace-{name}.json")
            cmd = [sys.executable, os.path.join(HERE, "cli_shim.py"), trace_out, *argv]
        else:
            cmd = [sys.executable, "-m", "ldp_expand.cli", *argv]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            raise CliExit(f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}")
        return proc

    try:
        for name, extra in CLI_COMMANDS:
            run.op(name, f"cli_{name}_s", lambda name=name, extra=extra: command(name, extra))
        extra = _check_gaussian_csvs(run, out_dir)
        if args.trace_file:
            import tracer
            merged: dict = {}
            for name, _ in CLI_COMMANDS:
                path = os.path.join(out_dir, f"trace-{name}.json")
                if os.path.exists(path):
                    with open(path) as fh:
                        tracer.merge(merged, json.load(fh))
            extra["cli_trace"] = merged
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return extra


class CliExit(ValueError):
    """A CLI command exited nonzero (counted as a failed operation)."""


def _read_csv(path: str) -> list[dict]:
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(",", len(header) - 1))) for ln in lines[1:] if ln]


def _check_gaussian_csvs(run: Run, out_dir: str) -> dict:
    import oracle

    def rows(name, cmd):
        path = os.path.join(out_dir, f"{name}.csv")
        if cmd in run.bad:
            return []
        if not os.path.exists(path):
            run.check(cmd, False, f"{name}.csv missing")
            return []
        return _read_csv(path)

    def num(row, key):
        return float(row[key])

    rate_rows = rows("rate", "rate")
    run.check("rate", len(rate_rows) == len(GAUSS_A_GRID) or "rate" in run.bad, "rate rows")
    for r in rate_rows:
        a = num(r, "a")
        run.check("rate", _close(num(r, "theta_a"), a, abs_tol=1e-9), f"theta_a at a={a}")
        run.check("rate", _close(num(r, "I"), 0.5 * a * a, abs_tol=1e-9), f"I at a={a}")
        run.check("rate", _close(num(r, "Isecond"), 1.0, abs_tol=1e-6), f"I'' at a={a}")

    gap = oracle.discrete_laplacian_gap(GAUSS_N)
    for r in rows("spectral", "spectral"):
        th = num(r, "theta")
        run.check("spectral", _close(num(r, "mu"), 0.5 * th * th, abs_tol=1e-10), f"mu({th})")
        run.check("spectral", _close(num(r, "mu_prime"), th, abs_tol=1e-8), f"mu'({th})")
        run.check("spectral", _close(num(r, "mu_second"), 1.0, abs_tol=1e-5), f"mu''({th})")
        run.check("spectral", _close(num(r, "gap"), gap, rel_tol=1e-9), f"gap({th})")

    for r in rows("expand", "expand"):
        t = num(r, "t")
        p_ref = oracle.gaussian_tail(1.0, t)
        run.check("expand", _close(num(r, "P"), p_ref, rel_tol=1e-5), f"P at t={t}")
        flat = math.sqrt(t) * math.exp(0.5 * t) * p_ref
        run.check("expand", _close(num(r, "sqrt(t)exp(It)P"), flat, rel_tol=1e-5),
                  f"flattened at t={t}")
    coeffs = oracle.gaussian_coefficients(1.0)
    # the order-6 fit on t in [16, 256] pins D0 to 1e-5 and D1 to 1e-3; D2
    # and D3 absorb the truncated series, so only their sign is checked
    fit_tol = (1e-4, 1e-2, None, None)
    for r in rows("expand_fit", "expand"):
        q = r["quantity"]
        val = num(r, "value")
        if q.isdigit():
            k = int(q)
            tol = fit_tol[k] if k < len(fit_tol) else None
            ok = _close(val, coeffs[k], rel_tol=tol) if tol else val * coeffs[k] > 0
            run.check("expand", ok, f"D{k} fitted {val!r} vs {coeffs[k]!r}")
        elif q == "D0_analytic":
            run.check("expand", _close(val, coeffs[0], rel_tol=1e-9), f"D0 analytic {val!r}")

    extra = {}
    for r in rows("simulate", "simulate"):
        a, t = num(r, "a"), num(r, "t")
        z = abs(num(r, "p_hat") - oracle.gaussian_tail(a, t)) / num(r, "stderr")
        run.check("simulate", z < Z_MAX, f"z-score {z:.2f}")
        run.check("simulate", num(r, "ess") > 0.1 * GAUSS_PATHS, f"ESS {r['ess']}")
        wall = num(r, "wall_time")
        extra["is_path_steps_per_s"] = num(r, "n_paths") * round(t / num(r, "dt")) / wall

    for r in rows("conditions", "verify-conditions"):
        run.check("verify-conditions", r["verdict"] == "pass", f"{r['condition']} {r['verdict']}")
        evidence = json.loads(r["evidence"].replace(";", ","))
        if r["condition"] == "B2":
            run.check("verify-conditions", _close(evidence["min_gap"], gap, rel_tol=1e-9), "B2 gap")
        elif r["condition"] == "B3":
            for key, margin in evidence["margins"].items():
                s = float(key.strip("()").split(",")[1])
                run.check("verify-conditions",
                          _close(margin, oracle.gaussian_b3_margin(s), abs_tol=1e-8, rel_tol=1e-10),
                          f"B3 margin {key}: {margin!r}")
        elif r["condition"] == "D1-2":
            # fitted rate = -log of the largest per-unit-time norm ratio over |s| >= K
            for th, ev in evidence.items():
                want = -math.log(oracle.gaussian_norm_ratio(ev["K"], 1.0))
                run.check("verify-conditions", _close(ev["decay_rate"], want, abs_tol=1e-8),
                          f"D1-2 decay rate at theta={th}: {ev['decay_rate']!r} vs {want!r}")

    report_rows = rows("report", "report")
    run.check("report", len(report_rows) == len(GAUSS_A_GRID) or "report" in run.bad,
              f"{len(report_rows)} report rows")
    for r in report_rows:
        a = num(r, "a")
        vals = {k: float(v) for k, v in r.items()}
        run.check("report", all(math.isfinite(v) for v in vals.values()), f"NaN in row a={a}")
        d = oracle.gaussian_coefficients(a)
        run.check("report", _close(vals["theta_a"], a, abs_tol=1e-9), f"theta_a at a={a}")
        run.check("report", _close(vals["I"], 0.5 * a * a, abs_tol=1e-9), f"I at a={a}")
        run.check("report", _close(vals["D0_analytic"], d[0], rel_tol=1e-9), f"D0 at a={a}")
        run.check("report", _close(vals["D0_fit"], d[0], rel_tol=0.01), f"D0 fit at a={a}")
        p_ref = oracle.gaussian_tail(a, 16.0)
        run.check("report", _close(vals["p_exact"], p_ref, rel_tol=1e-5), f"p_exact at a={a}")
        z = abs(vals["p_is"] - p_ref) / vals["p_is_stderr"]
        run.check("report", z < Z_MAX, f"IS z-score {z:.2f} at a={a}")
    return extra


WORKLOADS = {
    "mathieu-tails": ("mathieu", MATHIEU_N, mathieu_tails),
    "mathieu-is": ("mathieu", MATHIEU_N, mathieu_is),
    "mathieu-conditions": ("mathieu", COND_N, mathieu_conditions),
    "gaussian-cli": ("gaussian", GAUSS_N, gaussian_cli),
}


def reference_tail() -> dict:
    """exact_tail at the IS settings, the reference of the mathieu-is check."""
    import ldp_expand as lx

    p = lx.exact_tail(lx.mathieu_model(), lx.EvaluationFrame(), TAIL_A, TAIL_T,
                      n=MATHIEU_N, rel_tol=1e-6)
    return {"p_ref": p}


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # Linux reports KiB


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace-file")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--reference", action="store_true")
    parser.add_argument("--p-ref", type=float)
    args = parser.parse_args(argv)
    sys.path.insert(0, HERE)

    start = time.perf_counter()
    import ldp_expand as lx
    from ldp_expand import discretize
    from ldp_expand.errors import LdpExpandError

    if not os.path.abspath(lx.__file__).startswith(os.path.join(os.getcwd(), "src", "")):
        raise SystemExit(f"imported ldp_expand from {lx.__file__}, not from this checkout")
    if args.reference:
        print(json.dumps(reference_tail()))
        return 0

    rec = None
    if args.trace_file:
        import tracer
        rec = tracer.Recorder()
        tracer.install(rec)
    model, n, body = WORKLOADS[args.workload]
    spec = lx.mathieu_model() if model == "mathieu" else lx.gaussian_baseline()
    discretize.operators_for(spec, n).rho
    setup_s = time.perf_counter() - start
    result = {"setup_s": setup_s}
    if not args.setup_only:
        run = Run((LdpExpandError, ValueError))
        extra = body(lx, run, args)
        cli_trace = extra.pop("cli_trace", None)
        result.update({
            "wall_s": run.wall, "cpu_s": run.cpu, "groups": run.groups, "attempted": run.attempted,
            "failed": len(run.bad), "wrong": run.wrong, "problems": run.bad, **extra})
        if rec is not None:
            values = rec.snapshot()
            if cli_trace:
                tracer.merge(values, cli_trace)
            with open(args.trace_file, "w") as fh:
                json.dump(values, fh)
    result["peak_rss_mb"] = _peak_rss_mb()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
