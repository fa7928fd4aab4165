"""One measured hklab CLI run in a fresh interpreter.

    python3 bench/child.py LAUNCH RESULT [--spans SPANS] [-- CLI-ARGS...]

LAUNCH is the parent's `time.monotonic()` just before it started this
process, so setup time runs from interpreter launch to the return of
`import hklab.cli`.  Without CLI-ARGS the child only measures that
setup.  Otherwise it runs `hklab.cli.main(CLI-ARGS)` with the CLI's
stdout sent to `<RESULT>.stdout`, and with the span tracer installed
when --spans is given.  RESULT receives one JSON object: setup_s,
wall_s, cpu_s (user + sys of this process and its reaped children during
the run), peak_rss_mb and exit_code.
"""

import os
import sys
import time

LAUNCH = float(sys.argv[1])
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import hklab.cli  # noqa: E402

SETUP_S = time.monotonic() - LAUNCH

import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main(argv) -> int:
    result_path = argv[0]
    spans_path = None
    rest = argv[1:]
    if rest[:1] == ["--spans"]:
        spans_path, rest = rest[1], rest[2:]
    if rest[:1] == ["--"]:
        rest = rest[1:]
    result = {"setup_s": SETUP_S}
    if rest:
        tracer = None
        if spans_path:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        cpu0 = _cpu_seconds()
        wall0 = time.perf_counter()
        with open(result_path + ".stdout", "w", encoding="utf-8") as out, \
                contextlib.redirect_stdout(out):
            try:
                code = hklab.cli.main(rest)
            except SystemExit as stop:  # argparse rejects bad arguments this way
                code = stop.code if isinstance(stop.code, int) else 2
        wall = time.perf_counter() - wall0
        cpu = _cpu_seconds() - cpu0
        if tracer is not None:
            tracer.uninstall()
            tracer.dump(spans_path)
        peak_kb = max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
        result.update(wall_s=wall, cpu_s=cpu, peak_rss_mb=peak_kb / 1024, exit_code=code)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[2:]))
