"""Run one aircast CLI stage the way the ``aircast`` console script does.

Usage: python3 stage.py RECORD [ARGS...]

It calls ``aircast.cli.main(ARGS)`` and then writes RECORD, a JSON object:

- ``imported``: wall-clock time at which ``import aircast.cli`` finished, so
  the parent can tell the interpreter's set-up apart from the stage's work;
- ``main_s``: how long ``main`` ran;
- ``peak_rss_mb``: the highest resident set of this process or of any pool
  worker it waited for. The own peak is read from ``VmHWM``, because
  ``getrusage`` and ``wait4`` also carry over the peak of the process that
  started this one.

Without ARGS it only imports ``aircast.cli`` and exits 0: a bare set-up.
Otherwise the exit code is ``main``'s, and an exception ends the process
with a traceback and code 1, as it would for a user.
"""

import json
import resource
import sys
import time


def _own_peak_kb() -> int:
    with open("/proc/self/status", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def main() -> int:
    record, args = sys.argv[1], sys.argv[2:]
    from aircast.cli import main as cli_main

    imported = time.time()
    start = time.perf_counter()
    try:
        return cli_main(args) if args else 0
    finally:
        workers_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        with open(record, "w", encoding="utf-8") as fh:
            json.dump({
                "imported": imported,
                "main_s": time.perf_counter() - start,
                "peak_rss_mb": max(_own_peak_kb(), workers_kb) / 1024.0,
            }, fh)


if __name__ == "__main__":
    sys.exit(main())
