"""Run the ``repro`` CLI with the benchmark's layer wrappers installed.

    python perfbench/launcher.py TRACE_DIR [repro arguments ...]

Equivalent to ``python -m repro [arguments ...]``, except that every layer
function named in ``tracer.TARGETS`` records spans, which each process
(the CLI process and every census pool worker) writes under ``TRACE_DIR``
when it finishes.  Needs ``src`` on ``PYTHONPATH``, like ``python -m repro``.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer  # noqa: E402


def main() -> int:
    trace_dir, argv = sys.argv[1], sys.argv[2:]
    tracer.install(trace_dir)
    from repro.__main__ import main as repro_main

    try:
        return repro_main(argv)
    finally:
        tracer.dump(trace_dir)


if __name__ == "__main__":
    sys.exit(main())
