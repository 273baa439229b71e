"""`python -m binauralkit.cli` with the span tracer installed, for traced CLI ops.

Usage: python -X importtime perfbench/cli_child.py TRACE_JSON CLI_ARGS...

The CLI module is imported before the tracer so that `-X importtime`
attributes the package import to binauralkit; modules the CLI imports
later are wrapped as they load. TRACE_JSON receives the recorded spans
and the traced functions that loaded modules lacked; the CLI's exit code
is passed through.
"""

import json
import sys

import binauralkit.cli as cli

import tracer


def main() -> int:
    trace_out, argv = sys.argv[1], sys.argv[2:]
    t = tracer.Tracer()
    t.install(hook_imports=True)
    t.active = True
    try:
        return cli.main(argv)
    finally:
        t.active = False
        t.uninstall()
        with open(trace_out, "w") as f:
            json.dump({"spans": tracer.spans_to_json(t.spans), "missing": t.missing}, f)


if __name__ == "__main__":
    sys.exit(main())
