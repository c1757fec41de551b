"""Start ``repro serve`` with the benchmark's layer wrappers installed.

The traced catalog-service run starts the service through this file
instead of ``python -m repro serve``::

    python perfbench/serve_launcher.py --spans-out SPANS.json -- \\
        --port 0 --data-dir DIR

Everything after ``--`` goes to the service unchanged.  When the
service drains and returns (SIGTERM), the per-layer span aggregates,
exact counts and the wrapper calibration are written to ``SPANS.json``.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import layers
from tracer import Tracer


def main(argv) -> int:
    split = argv.index("--")
    own, serve_args = argv[:split], argv[split + 1:]
    spans_out = Path(own[own.index("--spans-out") + 1])
    tracer = Tracer()
    tracer.calibrate()
    layers.install(tracer)
    from repro.serve.cli import main as serve_main

    try:
        code = serve_main(serve_args)
    finally:
        doc = {"layers": tracer.report(), "counters": tracer.counters,
               "wrapper_s": tracer.wrapper_s}
        tmp = spans_out.with_suffix(".tmp")
        tmp.write_text(json.dumps(doc, sort_keys=True))
        os.replace(tmp, spans_out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
