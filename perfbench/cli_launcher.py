"""Run one gaugelab CLI command with the timing wrappers installed.

    python3 perfbench/cli_launcher.py TRACE_FILE ARGS...

Behaves like `python -m gaugelab ARGS...` (same output, same exit code) and
writes the tracer's counters and spans to TRACE_FILE, relative to the working
directory, for the traced `cli` workload to add up.
"""

import json
import sys

import tracer as tracing


def main() -> int:
    trace_file, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    from gaugelab import cli

    code = 0
    try:
        cli.main_cli(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        with open(trace_file, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
