"""Run one cavitypair command-line call with the tracer installed.

Usage: python3 perfbench/traced_cli.py SUBCOMMAND [ARGS...]

Standard output and the exit code are the command's own; the tracer's
statistics follow TRACE_MARKER on the last line of standard error.
"""

import json
import sys

from checkout import PACKAGE, use_source


def main() -> int:
    use_source()
    import cavitypair.cli
    from layers import TARGETS, TRACE_MARKER
    from tracer import Tracer

    with Tracer(PACKAGE, TARGETS) as tracer:
        code = cavitypair.cli.main(sys.argv[1:])
    sys.stdout.flush()
    sys.stderr.write(TRACE_MARKER + json.dumps(tracer.export()) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
