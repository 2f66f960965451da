"""Traced CLI entry: ``python3 perfbench/cli_shim.py TRACE_OUT <ldp-expand args>``.

Runs ``ldp_expand.cli.main`` with the tracer installed and writes the
recorder's values to TRACE_OUT as JSON; exits with the command's code.
"""
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracer  # noqa: E402
from ldp_expand import cli  # noqa: E402

if __name__ == "__main__":
    rec = tracer.Recorder()
    tracer.install(rec)
    try:
        code = cli.main(sys.argv[2:])
    finally:
        with open(sys.argv[1], "w") as fh:
            json.dump(rec.snapshot(), fh)
    sys.exit(code)
