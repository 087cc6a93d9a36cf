"""``repro serve`` with the span recorders installed — the traced server.

    python perf/serve_traced.py SPANS.json --store DIR --program FILE ...

The untraced run starts the server as a user would (``python -m repro
serve``); the traced run starts it through this file so the wrappers of
:mod:`trace` sit around the same public functions inside the server
process. The spans are written to ``SPANS.json`` after the server has shut
down; the driver reads them back and lines them up with its own clock
(``time.perf_counter`` is the system-wide monotonic clock on Linux).
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))


def main(argv) -> int:
    from trace import Tracer  # perf/trace.py (HERE is first on sys.path)

    from repro.cli import main as repro_main

    spans_path, *serve_args = argv
    tracer = Tracer()
    tracer.install()
    try:
        return repro_main(["serve", *serve_args])
    finally:
        tracer.uninstall()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
