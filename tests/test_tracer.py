"""The benchmark's ``--trace 1`` mode wraps library functions by name; a
deletion or rename of one of them breaks the traced run."""
import json
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

COUNTERS = ("discretize.perron.calls", "eigen.rqi_pair.calls", "discretize.top_pair.calls",
            "discretize.nmgf_top.calls", "discretize.certify_top_mode.calls",
            "expansion.transform_evals")

SCRIPT = f"""
import sys
sys.path.insert(0, {str(PERFBENCH)!r})
import ldp_expand as lx
import tracer
rec = tracer.Recorder()
tracer.install(rec)
spec = lx.gaussian_baseline()
lx.rate_point(spec, 1.0, n=64)
lx.exact_tail(spec, lx.EvaluationFrame(), 1.0, 16.0, n=64)
values = rec.snapshot()
print(*(values.get(name, 0.0) for name in {COUNTERS!r}))
"""


def test_tracer_installs_and_counts_a_rate_point():
    # a subprocess, because install patches the library in place
    proc = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    counts = dict(zip(COUNTERS, map(float, proc.stdout.split())))
    assert all(counts.values()), counts


CLI_LABELS = ("cli.parse_config.s", "cli.write_csv.s", "cli.rate.s")


def test_tracer_times_the_cli_path(tmp_path):
    # the traced gaussian-cli run reads these labels through perfbench/cli_shim.py
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"model": {"builtin": "gaussian_baseline"}, "grid_n": 64,
                                  "a_grid": [0.5, 1.0], "output_dir": str(tmp_path / "out")}))
    trace = tmp_path / "trace.json"
    proc = subprocess.run([sys.executable, str(PERFBENCH / "cli_shim.py"), str(trace),
                           "rate", "--config", str(config)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    values = json.loads(trace.read_text())
    assert all(values.get(label, 0.0) > 0 for label in CLI_LABELS), values
