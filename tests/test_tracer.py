"""The benchmark's ``--trace 1`` mode wraps library functions by name; a
deletion or rename of one of them breaks the traced run."""
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

SCRIPT = f"""
import sys
sys.path.insert(0, {str(PERFBENCH)!r})
import ldp_expand as lx
import tracer
rec = tracer.Recorder()
tracer.install(rec)
lx.rate_point(lx.gaussian_baseline(), 1.0, n=64)
values = rec.snapshot()
print(values.get("discretize.perron.calls", 0.0), values.get("eigen.rqi_pair.calls", 0.0))
"""


def test_tracer_installs_and_counts_a_rate_point():
    # a subprocess, because install patches the library in place
    proc = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    perron_calls, rqi_calls = map(float, proc.stdout.split())
    assert perron_calls > 0 and rqi_calls > 0
