"""Time one cold set-up: import cavitypair, then build a workload's seeded inputs.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED

Prints one JSON line with ``import_s`` and ``setup_s`` (import plus inputs),
both timed from before the first import, so numpy and scipy are included.
"""

import json
import sys
import time


def main() -> int:
    start = time.perf_counter()
    from checkout import use_source

    use_source()
    import cavitypair

    imported = time.perf_counter()
    import workloads

    workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]), cavitypair)
    done = time.perf_counter()
    print(json.dumps({"import_s": imported - start, "setup_s": done - start}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
