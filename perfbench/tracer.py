"""Outside-in tracer: wraps the library's functions from the benchmark's own
files, so the program under test is not modified.

Each function is wrapped under every name its callers look it up by: the
defining module, every ``ldp_expand`` module that imported it by name, and
the package namespace.  ``DiffusionOperators`` methods and the field
``__call__`` methods are wrapped on their classes.  The dense kernels are
wrapped by giving each library module that holds ``sla`` (``scipy.linalg``)
a proxy whose kernel attributes are timed.

Times are inclusive busy seconds per label (a call nested in another traced
call counts in both).  The recorder is shared by all threads: the condition
suite runs B3 inside ``parallel_map`` workers.
"""
from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict

import scipy.linalg as _sla


class Recorder:
    """Thread-safe counters; ``stack`` is per thread so nested labels are
    attributed to the thread that made the call."""

    def __init__(self):
        self._lock = threading.Lock()
        self.values: dict[str, float] = defaultdict(float)
        self._local = threading.local()

    def add(self, name: str, amount: float = 1.0):
        with self._lock:
            self.values[name] += amount

    def set_max(self, name: str, value: float):
        with self._lock:
            self.values[name] = max(self.values.get(name, 0.0), value)

    def stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def snapshot(self) -> dict:
        with self._lock:
            return dict(self.values)


def _timed(rec: Recorder, label: str, fn, after=None):
    """Wrap fn: count calls, add busy time, then let ``after`` inspect the
    arguments and result (fallbacks, sizes, diagnostics)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        st = rec.stack()
        st.append(label)
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            st.pop()
            rec.add(label + ".calls")
            rec.add(label + ".s", elapsed)
        if after is not None:
            after(rec, args, out)
        return out

    return wrapper


def _failed_if_none(label):
    def after(rec, args, out):
        if out is None:
            rec.add(label + ".failed")
    return after


def _transform_eval(rec, args, out):
    # nmgf / nmgf_top evaluations made while an expansion call is active
    if any(frame.startswith("expansion.") for frame in rec.stack()):
        rec.add("expansion.transform_evals")


def _refused(rec, args, out):
    if out is False:
        rec.add("discretize.certify_top_mode.refused")


def _matrix_size(label):
    def after(rec, args, out):
        if args and hasattr(args[0], "shape") and len(args[0].shape) == 2:
            rec.set_max(label + ".max_n", float(args[0].shape[0]))
    return after


def _path_steps(rec, args, out):
    # euler_maruyama(spec, t, dt, n_paths, seed, ...)
    t, dt, n_paths = float(args[1]), float(args[2]), int(args[3])
    rec.add("simulate.path_steps", n_paths * round(t / dt))


def _ess(rec, args, out):
    rec.add("simulate.ess_sum", float(out.ess))
    rec.add("simulate.ess_count")


class _LinalgProxy:
    """Stands in for ``scipy.linalg`` inside one library module."""

    def __init__(self, rec: Recorder):
        for attr, label in (("lu_factor", "linalg.lu_factor"), ("eig", "linalg.eig"),
                            ("eigvals", "linalg.eig"), ("expm", "linalg.expm"),
                            ("solve", "linalg.solve")):
            setattr(self, attr, _timed(rec, label, getattr(_sla, attr), _matrix_size(label)))

    def __getattr__(self, name):
        return getattr(_sla, name)


def _eigendata_split(rec: Recorder, fn):
    """eigendata at real tilts (Perron data) and complex tilts (mostly B1)."""
    real = _timed(rec, "discretize.eigendata_real", fn)
    cplx = _timed(rec, "discretize.eigendata_complex", fn)

    @functools.wraps(fn)
    def wrapper(self, z):
        return (cplx if complex(z).imag != 0.0 else real)(self, z)
    return wrapper


def install(rec: Recorder) -> None:
    """Wrap the library in place.  Call after ``import ldp_expand`` and
    before the workload runs."""
    from ldp_expand import (_eigen, _parallel, cli, discretize, expansion, fields,
                            rate, simulate, spectral, verify)

    modules = [m for name, m in sys.modules.items()
               if name == "ldp_expand" or name.startswith("ldp_expand.")]
    functions = [
        (discretize, "operators_for", "discretize.operators_for", None),
        (discretize, "invariant_density", "discretize.invariant_density", None),
        (_eigen, "rqi_pair", "eigen.rqi_pair", _failed_if_none("eigen.rqi_pair")),
        (_eigen, "top_eigen_data", "eigen.top_eigen_data", None),
        (rate, "solve_theta", "rate.solve_theta", None),
        (rate, "rate_point", "rate.rate_point", None),
        (spectral, "b3_margins", "spectral.b3_margins", None),
        (spectral, "decay_profile", "spectral.decay_profile", None),
        (spectral, "convexity_profile", "spectral.convexity_profile", None),
        (spectral, "effective_diffusivity_core", "spectral.effective_diffusivity_core", None),
        (expansion, "exact_tail", "expansion.exact_tail", None),
        (expansion, "tail_curve", "expansion.tail_curve", None),
        (expansion, "extract_coefficients", "expansion.extract_coefficients", None),
        (expansion, "leading_coefficient", "expansion.leading_coefficient", None),
        (simulate, "estimate_tail_is", "simulate.estimate_tail_is", _ess),
        (simulate, "tilted_dynamics", "simulate.tilted_dynamics", None),
        (simulate, "euler_maruyama", "simulate.euler_maruyama", _path_steps),
        (verify, "run_condition_suite", "verify.run_condition_suite", None),
        (verify, "quick_condition_check", "verify.quick_condition_check", None),
        (verify, "projector_time_independence", "verify.projector_time_independence", None),
        (_parallel, "parallel_map", "parallel.parallel_map", None),
        (cli, "parse_config", "cli.parse_config", None),
        (cli, "write_csv", "cli.write_csv", None),
    ]
    for home, attr, label, after in functions:
        original = getattr(home, attr)
        wrapped = _timed(rec, label, original, after)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapped)

    ops_cls = discretize.DiffusionOperators
    methods = [
        ("perron", "discretize.perron", None),
        ("_rqi", "discretize.perron_rqi", _failed_if_none("discretize.perron_rqi")),
        ("top_pair", "discretize.top_pair", _failed_if_none("discretize.top_pair")),
        ("nmgf_top", "discretize.nmgf_top", _transform_eval),
        ("nmgf", "discretize.nmgf", _transform_eval),
        ("certify_top_mode", "discretize.certify_top_mode", _refused),
    ]
    for attr, label, after in methods:
        setattr(ops_cls, attr, _timed(rec, label, getattr(ops_cls, attr), after))
    ops_cls.eigendata = _eigendata_split(rec, ops_cls.eigendata)

    for cls in (fields.FourierField, fields.TabulatedField):
        cls.__call__ = _timed(rec, "fields.eval", cls.__call__)

    for name, handler in list(cli._COMMANDS.items()):
        cli._COMMANDS[name] = _timed(rec, f"cli.{name}", handler)

    proxy = _LinalgProxy(rec)
    for mod in modules:
        if vars(mod).get("sla") is _sla:
            mod.sla = proxy


def per_layer(values: dict) -> dict:
    """Derived per-layer figures from raw recorder values."""
    out = dict(values)
    steps = values.get("simulate.path_steps", 0.0)
    em_s = values.get("simulate.euler_maruyama.s", 0.0)
    out["simulate.ns_per_path_step"] = 1e9 * em_s / steps if steps else 0.0
    count = values.get("simulate.ess_count", 0.0)
    out["simulate.ess"] = values.get("simulate.ess_sum", 0.0) / count if count else 0.0
    return out


def merge(into: dict, other: dict) -> dict:
    """Combine raw recorder values of several processes."""
    for key, value in other.items():
        if key.endswith(".max_n"):
            into[key] = max(into.get(key, 0.0), value)
        else:
            into[key] = into.get(key, 0.0) + value
    return into
