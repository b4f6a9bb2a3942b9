"""Child-process entry point: optionally install tracing, then run the program.

Usage::

    python3 perf/launch.py ROLE TRACE_OUT [ARGS...]

``ROLE`` is ``fit`` (the fit pipeline of ``pipeline.py``; ``ARGS`` is its
config file) or ``serve`` / ``refresh`` (``repro.cli.main([ROLE, *ARGS])``,
the same code path as ``python -m repro ROLE ...``).  ``TRACE_OUT`` is the
file the span dump is written to when the process ends, or ``-`` for an
untraced run.  Traced and untraced runs execute the same code; only the
wrappers differ.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


def main(argv) -> int:
    role, trace_out, args = argv[0], argv[1], argv[2:]
    tracer = None
    if trace_out != "-":
        import trace

        tracer = trace.Tracer()
        tracer.install()
    try:
        if role == "fit":
            import pipeline

            return pipeline.main(args)
        if role in ("serve", "refresh"):
            from repro.cli import main as cli_main

            return cli_main([role, *args])
        print(f"unknown role {role!r}", file=sys.stderr)
        return 2
    finally:
        if tracer is not None:
            tracer.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
