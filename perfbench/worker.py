"""Run one session of `hmsurf` CLI ops in this fresh interpreter.

    python3 perfbench/worker.py SRC_DIR [--setup-only] < request.json

The request is one JSON object: `t_spawn` (CLOCK_MONOTONIC just before the
parent started this process), `ops` (a list of argv lists), `trace` (wrap the
layers with tracer.py) and `spans_out` (where a traced session writes its
spans).  The worker imports `hmsurf.cli` from SRC_DIR first, so that the
set-up time covers interpreter start, `site` and the program's imports and
nothing of the benchmark's own.  It then runs each op through
`hmsurf.cli.main` with stdout and stderr captured, timing the call alone, and
prints one JSON line: `setup_s`, `results` ([exit code, stdout digest,
seconds, rows, start] per op), `calibration`, `maxrss_kb` and, when traced,
`rollup`.

`calibration` holds [start, seconds]: the median duration of three runs of a
fixed pure-Python computation, taken right after the import (also with
--setup-only, which then prints `setup_s` and `calibration` alone), between
ops at least every CALIBRATION_EVERY_S, and after the last op.  The host is
shared and its speed drifts by tens of percent within seconds; run.py scales
each op's latency by the calibrations around it, and each interpreter's
set-up time by its first calibration, so that the end-to-end figures follow
the program, not the host.
"""

import os
import sys
import time


CALIBRATION_EVERY_S = 0.5
CALIBRATION_STEPS = 40_000
CALIBRATION_REPEATS = 3


def calibrate() -> float:
    """Seconds taken by a fixed mix of small-integer, list-store, Fraction and
    big-integer work, the kinds of bytecode hmsurf spends its time in.  The
    garbage collector is off meanwhile, so the size of what the program left
    in memory cannot change the time."""
    import gc
    from fractions import Fraction

    slots = [0] * 1024
    acc = 0
    frac = Fraction(0)
    big = 3 ** 400
    mod = 7 ** 420
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for i in range(1, CALIBRATION_STEPS):
            slots[i & 1023] = acc
            acc = (acc * 31 + i) % 1000003
            if i & 31 == 0:
                frac += Fraction(i % 97, i)
                big = (big * 12345 + i) % mod
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def import_cli(src: str):
    """Import hmsurf.cli from SRC_DIR and nowhere else."""
    sys.path.insert(0, src)
    import hmsurf.cli

    path = os.path.realpath(hmsurf.cli.__file__)
    if not path.startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"hmsurf imported from {path}, not from {src}")
    return hmsurf.cli


def run_op(cli, argv) -> "tuple[str, str, float]":
    """(exit code, stdout, seconds) of one `hmsurf` command.  An exception
    escaping `main` is an exit code of its own, 'raise:<type>'."""
    import contextlib
    import io

    out = io.StringIO()
    err = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = str(cli.main(list(argv)))
    except Exception as exc:  # the op fails; the session goes on
        rc = f"raise:{type(exc).__name__}"
    seconds = time.perf_counter() - t0
    return rc, out.getvalue(), seconds


def digest(text: str) -> str:
    import hashlib

    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def rows_of(argv, rc: str, text: str) -> int:
    """Result rows an op emitted: one per discriminant for a table, one for
    any other successful op."""
    if rc != "0":
        return 0
    if argv[0] == "table":
        import json

        return len(json.loads(text)["rows"])
    return 1


def main() -> int:
    src = sys.argv[1]
    cli = import_cli(src)
    t_ready = monotonic()

    import json
    import resource
    import threading

    request = json.load(sys.stdin)
    calibration = []

    def calibrate_now():
        # Work running beside the ops would slow the calibration and so
        # flatter the scaled latencies.
        if threading.active_count() != 1:
            raise RuntimeError("a thread besides the main one is alive")
        start = time.perf_counter()
        runs = sorted(calibrate() for _ in range(CALIBRATION_REPEATS))
        calibration.append([start, runs[CALIBRATION_REPEATS // 2]])

    calibrate_now()
    reply = {"setup_s": t_ready - request["t_spawn"], "calibration": calibration}
    if "--setup-only" in sys.argv[2:]:
        print(json.dumps(reply))
        return 0

    recorder = None
    if request.get("trace"):
        import tracer

        recorder = tracer.Recorder()
        tracer.install(recorder)
    results = []
    ops = request["ops"]
    for i, argv in enumerate(ops):
        if recorder is not None:
            recorder.op = i
        start = time.perf_counter()
        rc, text, seconds = run_op(cli, argv)
        results.append([rc, digest(text), seconds, rows_of(argv, rc, text), start])
        if i == len(ops) - 1 or time.perf_counter() - calibration[-1][0] >= CALIBRATION_EVERY_S:
            calibrate_now()
    reply["results"] = results
    reply["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if recorder is not None:
        reply["rollup"] = recorder.rollup()
        if request.get("spans_out"):
            recorder.write_spans(request["spans_out"])
    print(json.dumps(reply))
    return 0


if __name__ == "__main__":
    sys.exit(main())
