"""Cold-process benchmark of ldp-expand.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/ldp_expand`` must exist).  Each
repetition is a fresh interpreter (``child.py``), because the library's
per-model workspace caches live for the life of a process and a command-line
user pays the cold cost on every command.  Repetitions run back to back, at
least two; another starts only while one of median length still fits in S
seconds.

With ``--trace 0`` the last line of standard output reports the end-to-end
metrics: ``setup_s`` (median over the repetitions and extra set-up-only
processes), ``wall_s`` (median timed wall of a repetition, output checks
excluded) and ``peak_rss_mb`` (median peak resident memory of a repetition,
CLI subprocesses included).  With ``--trace 1`` one untraced and one traced
repetition run with the same seed; the per-layer metrics come from the traced
one, the per-operation figures from the untraced one, and ``trace.overhead_s``
is the difference of their walls.  A record of the run, with the machine
description, is written to ``.perfbench_out/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench_out"
MIN_REPS = 2
MIN_SETUP_SAMPLES = 5
RUN_BUDGET_S = 170.0
BLAS_THREADS = 1
WORKLOADS = ("mathieu-tails", "mathieu-is", "mathieu-conditions", "gaussian-cli")

# (name, unit); BENCHMARK.json lists the same names with their direction (and bound)
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))
OPERATION_FIGURES = (
    ("exact_tail_s", "s", "exact_tail_s"), ("expansion_s", "s", "expansion_s"),
    ("size_sweep_s", "s", "size_sweep_s"), ("conditions_s", "s", "conditions_s"),
    ("is_path_steps_per_s", "1/s", None), ("is_ess_per_s", "1/s", None),
)


def _counted(label, *kinds):
    units = {"calls": "count", "s": "s", "failed": "count", "refused": "count",
             "max_n": "count"}
    return [(f"{label}.{k}", units[k]) for k in kinds]


PER_LAYER = [
    *_counted("discretize.operators_for", "s"),
    *_counted("discretize.invariant_density", "s"),
    *_counted("discretize.perron", "calls", "s"),
    *_counted("discretize.perron_rqi", "calls", "failed"),
    *_counted("discretize.top_pair", "calls", "s", "failed"),
    *_counted("discretize.nmgf_top", "calls", "s"),
    *_counted("discretize.nmgf", "calls", "s"),
    *_counted("discretize.certify_top_mode", "calls", "s", "refused"),
    *_counted("discretize.eigendata_real", "calls", "s"),
    *_counted("discretize.eigendata_complex", "calls", "s"),
    *_counted("eigen.rqi_pair", "calls", "s", "failed"),
    *_counted("eigen.top_eigen_data", "calls", "s"),
    *_counted("linalg.lu_factor", "calls", "s", "max_n"),
    *_counted("linalg.eig", "calls", "s", "max_n"),
    *_counted("linalg.expm", "calls", "s", "max_n"),
    *_counted("linalg.solve", "calls", "max_n"),
    *_counted("rate.solve_theta", "calls", "s"),
    *_counted("rate.rate_point", "calls", "s"),
    *_counted("spectral.b3_margins", "s"),
    *_counted("spectral.decay_profile", "s"),
    *_counted("spectral.convexity_profile", "s"),
    *_counted("spectral.effective_diffusivity_core", "s"),
    *_counted("expansion.exact_tail", "s"),
    *_counted("expansion.tail_curve", "s"),
    *_counted("expansion.extract_coefficients", "s"),
    *_counted("expansion.leading_coefficient", "s"),
    ("expansion.transform_evals", "count"),
    *_counted("simulate.estimate_tail_is", "s"),
    *_counted("simulate.tilted_dynamics", "s"),
    *_counted("simulate.euler_maruyama", "s"),
    ("simulate.ns_per_path_step", "ns"),
    ("simulate.ess", "count"),
    *_counted("fields.eval", "calls", "s"),
    *_counted("verify.run_condition_suite", "s"),
    *_counted("verify.quick_condition_check", "s"),
    *_counted("verify.projector_time_independence", "s"),
    *_counted("parallel.parallel_map", "calls", "s"),
    *_counted("cli.parse_config", "s"),
    *_counted("cli.write_csv", "s"),
    *(item for cmd in ("rate", "spectral", "expand", "simulate", "verify-conditions", "report")
      for item in _counted(f"cli.{cmd}", "s")),
    ("trace.overhead_s", "s"),
    *((name, unit) for name, unit, _ in OPERATION_FIGURES),
]


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _source_root() -> str:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ldp_expand", "__init__.py")):
        raise BenchError(f"no src/ldp_expand under {root}: run from the root of a source checkout")
    return root


def _environment(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["LDP_EXPAND_THREADS"] = str(min(2, _nproc()))
    return env


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def machine_record(env: dict) -> dict:
    import numpy
    import scipy

    blas = "unknown"
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError, ValueError):
        pass
    return {"nproc": _nproc(), "blas": blas, "blas_threads": env["OPENBLAS_NUM_THREADS"],
            "ldp_expand_threads": env["LDP_EXPAND_THREADS"],
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "machine": platform.machine()}


class Runner:
    """Starts child processes under one deadline and collects their JSON."""

    def __init__(self, root: str, env: dict, workload: str):
        self.root, self.env, self.workload = root, env, workload
        self.deadline = time.monotonic() + RUN_BUDGET_S

    def child(self, seed: int, *extra: str) -> dict:
        cmd = [sys.executable, os.path.join(HERE, "child.py"),
               "--workload", self.workload, "--seed", str(seed), *extra]
        remaining = self.deadline - time.monotonic()
        if remaining <= 1.0:
            raise BenchError("run budget exhausted")
        proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=subprocess.PIPE,
                                text=True, start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"child {' '.join(extra) or 'repetition'} exceeded the run budget")
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        lines = out.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"child exited with {proc.returncode}")
        return json.loads(lines[-1])


def _reference(runner: Runner) -> float | None:
    """exact_tail at the IS settings, cached per source tree: it is the same
    value for every seed and costs more than the repetitions it checks."""
    digest = hashlib.sha256()
    for base in (os.path.join(runner.root, "src", "ldp_expand"), HERE):
        for name in sorted(os.listdir(base)):
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    digest.update(name.encode() + fh.read())
    path = os.path.join(runner.root, OUT_DIR, f"reference-{digest.hexdigest()[:16]}.json")
    if os.path.exists(path):
        with open(path) as fh:
            return json.load(fh)["p_ref"]
    try:
        p_ref = runner.child(0, "--reference")["p_ref"]
    except BenchError:
        return None  # every IS check then fails, counted per repetition
    with open(path, "w") as fh:
        json.dump({"p_ref": p_ref}, fh)
    return p_ref


def _rep_args(workload: str, seed: int, rep: int, p_ref) -> tuple[int, list[str]]:
    extra = []
    if workload == "mathieu-is":
        seed = seed * 1000 + rep  # fresh noise per repetition, fixed by the run's seed
        if p_ref is not None:
            extra = ["--p-ref", repr(p_ref)]
    return seed, extra


def _operation_figures(rep: dict) -> dict:
    out = {}
    for name, _, group in OPERATION_FIGURES:
        out[name] = rep["groups"].get(group, 0.0) if group else rep.get(name, 0.0)
    return out


def measure(runner: Runner, seed: int, seconds: float) -> tuple[dict, list, dict]:
    p_ref = _reference(runner) if runner.workload == "mathieu-is" else None
    reps, lengths = [], []
    start = time.monotonic()
    while len(reps) < MIN_REPS or (
            time.monotonic() - start + statistics.median(lengths) <= seconds):
        rep_seed, extra = _rep_args(runner.workload, seed, len(reps), p_ref)
        rep_start = time.monotonic()
        reps.append(runner.child(rep_seed, *extra))
        lengths.append(time.monotonic() - rep_start)
    setups = [r["setup_s"] for r in reps]
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(runner.child(seed, "--setup-only")["setup_s"])
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    record = {"setup_samples": setups, "repetitions": reps,
              "operation_medians": {k: statistics.median(_operation_figures(r)[k] for r in reps)
                                    for k, _, _ in OPERATION_FIGURES}}
    return metrics, reps, record


def measure_traced(runner: Runner, seed: int) -> tuple[dict, list, dict]:
    import tracer

    p_ref = _reference(runner) if runner.workload == "mathieu-is" else None
    rep_seed, extra = _rep_args(runner.workload, seed, 0, p_ref)
    plain = runner.child(rep_seed, *extra)
    trace_path = os.path.join(OUT_DIR, f"trace-{runner.workload}-{os.getpid()}.json")
    traced = runner.child(rep_seed, *extra, "--trace-file", trace_path)
    with open(os.path.join(runner.root, trace_path)) as fh:
        values = tracer.per_layer(json.load(fh))
    os.remove(os.path.join(runner.root, trace_path))
    values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    values.update(_operation_figures(plain))
    metrics = {name: float(values.get(name, 0.0)) for name, _ in PER_LAYER}
    record = {"untraced": plain, "traced": traced, "raw_trace": values}
    return metrics, [plain, traced], record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Cold-process benchmark of ldp-expand")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        root = _source_root()
        env = _environment(root)
        sys.path.insert(0, HERE)
        os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
        runner = Runner(root, env, args.workload)
        if args.trace:
            metrics, reps, record = measure_traced(runner, args.seed)
            units = dict(PER_LAYER)
        else:
            metrics, reps, record = measure(runner, args.seed, args.seconds)
            units = dict(END_TO_END)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    result = {
        "correct": not any(r["wrong"] for r in reps),
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record.update({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "machine": machine_record(env), "result": result})
    path = os.path.join(root, OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    for rep in reps:
        for op, why in rep.get("problems", {}).items():
            print(f"perfbench: {op} failed: {why}", file=sys.stderr)
    print(json.dumps({"machine": record["machine"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
