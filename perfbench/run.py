"""The hmsurf benchmark.

    python3 perfbench/run.py --workload {sweep,exact,queries} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout.  The program under test is `src/hmsurf`,
driven through its public entry point `hmsurf.cli.main` by worker.py, one
fresh interpreter per session (see ops.py for the sessions of each
workload).  Every op's exit code and stdout digest is checked against the
goldens in data/.  The last line printed is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it, starting
with `# detail`, carries what the metrics rest on (sample counts, the tail
percentile, dmax values, revisit share, failures by exit code, known
failures whose exit code changed).

--trace 0  runs sessions until --seconds have passed, after twelve bare-import
           interpreters that sample set-up time, and reports the end-to-end
           metrics.  The host is shared and its speed drifts, so each op's
           latency is scaled by CALIBRATION_NOMINAL_S over the mean of the
           calibrations worker.py ran just before and just after it, and
           each interpreter's set-up time by the calibration it ran right
           after its import.  The unscaled figures are in the `# detail`
           line.
--trace 1  runs a fixed number of sessions for the seed (ops.trace_session_count),
           first untraced and then with every layer wrapped by tracer.py,
           checks that both passes print byte-identical stdout op by op, and
           reports the per-layer metrics.  Spans go to perfbench/.run/.

Metric names and units come from BENCHMARK.json; a run that computes another
set of metrics is an error.  Any error exits 1 without printing a result.
"""

import argparse
import gzip
import itertools
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

import ops
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
RUN_DIR = os.path.join(HERE, ".run")
SETUP_PROBES = 12
SESSION_TIMEOUT_S = 150
# Duration of worker.calibrate() at the reference speed: about its median
# between ops on the 2-CPU host where the goldens were recorded.  Each op's
# latency is reported as if the calibrations around it had taken this long.
CALIBRATION_NOMINAL_S = 0.017
TAIL_PERCENTILES = (99.9, 99, 90, 50)
TAIL_MIN_BEYOND = 10
LAYER_NAMES = tuple(dict.fromkeys(tracer.LAYERS.values()))


class BenchError(Exception):
    pass


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# -- goldens ---------------------------------------------------------------------


def load_goldens(workload: str) -> dict:
    """op key -> (exit code, stdout digest or '-') recorded at the reference commit."""
    path = os.path.join(ops.DATA_DIR, f"goldens-{workload}.tsv.gz")
    goldens = {}
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        for line in fh:
            rc, dig, key = line.rstrip("\n").split("\t", 2)
            goldens[key] = (rc, dig)
    return goldens


def refused(goldens: dict) -> "set[str]":
    """Keys of the ops that failed at the reference commit."""
    return {key for key, (rc, _) in goldens.items() if rc != "0"}


def check(golden, rc: str, dig: str) -> str:
    """Status of one op against its golden.

    ok          the golden exit code is 0 and the stdout digest matches;
    wrong       the golden exit code is 0 and the op differs from it, or an
                exception escaped `main` ('raise:<type>'), which breaks the
                CLI's exit-code contract whatever the golden;
    known_fail  the op failed at the reference commit and still fails with
                an exit code (run() counts those whose code changed);
    unverified  the op failed at the reference commit and now exits 0, so there is
                no golden output to check it against;
    unknown     the op has no golden at all.
    Failed ops are wrong, known_fail and unknown; correct is false when any
    op is wrong or unknown.
    """
    if golden is None:
        return "unknown"
    want_rc, want_dig = golden
    if want_rc == "0":
        return "ok" if (rc, dig) == golden else "wrong"
    if rc.startswith("raise:"):
        return "wrong"
    return "unverified" if rc == "0" else "known_fail"


FAILED = frozenset({"wrong", "known_fail", "unknown"})
INCORRECT = frozenset({"wrong", "unknown"})


# -- running sessions --------------------------------------------------------------


def spawn(request: dict, cwd: str, setup_only: bool = False) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("HMSURF_")}
    cmd = [sys.executable, WORKER, SRC] + (["--setup-only"] if setup_only else [])
    t_spawn = monotonic()
    payload = json.dumps({**request, "t_spawn": t_spawn})
    try:
        proc = subprocess.run(cmd, input=payload, capture_output=True, text=True,
                              cwd=cwd, env=env, timeout=SESSION_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"session ran over {SESSION_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def execute(sessions, workdir: str, goldens: dict, *, deadline=None, trace=False,
            spans_prefix=None) -> "tuple[list[dict], list[dict]]":
    """Run sessions, one fresh worker each, until they or the deadline run out.
    Returns one record per op and the workers' replies."""
    records = []
    session_replies = []
    for k, session in enumerate(sessions):
        if deadline is not None and monotonic() >= deadline:
            break
        request = {"ops": [argv for argv, _, _ in session], "trace": trace,
                   "spans_out": f"{spans_prefix}-{k}.jsonl" if spans_prefix else None}
        reply = spawn(request, workdir)
        calibration = reply["calibration"]
        for (argv, fixture, D), (rc, dig, seconds, rows, start) in zip(session, reply["results"]):
            before = max(c for c in calibration if c[0] <= start)
            after = min(c for c in calibration if c[0] >= start + seconds)
            golden = goldens.get(ops.op_key(argv))
            records.append({
                "argv": argv, "fixture": fixture, "D": D, "session": k,
                "rc": rc, "digest": dig, "seconds": seconds, "rows": rows,
                "scale": 2 * CALIBRATION_NOMINAL_S / (before[1] + after[1]),
                "status": check(golden, rc, dig),
                "golden_rc": golden[0] if golden else None,
            })
        session_replies.append(reply)
    return records, session_replies


# -- metrics ---------------------------------------------------------------------


def tail(values: "list[float]") -> "tuple[float, float, int]":
    """(value, percentile, samples beyond it) for the highest of
    TAIL_PERCENTILES with at least TAIL_MIN_BEYOND samples beyond it, by
    nearest rank.  With fewer than 2 * TAIL_MIN_BEYOND samples none
    qualifies, and the median is reported with its count beyond."""
    values = sorted(values)
    n = len(values)
    for p in TAIL_PERCENTILES:
        idx = max(0, math.ceil(p / 100 * n) - 1)
        if n - idx - 1 >= TAIL_MIN_BEYOND:
            break
    return values[idx], p, n - idx - 1


def counts(records) -> dict:
    out = {}
    for r in records:
        if r["status"] in FAILED:
            key = f"{r['status']}:{r['rc']}"
            out[key] = out.get(key, 0) + 1
    return dict(sorted(out.items()))


def revisit_share(records) -> float:
    """Share of the seeded ops with a D whose D was seen earlier in their
    session."""
    seen = set()
    revisits = total = 0
    for r in records:
        if r["fixture"] or r["D"] is None:
            continue
        total += 1
        revisits += (r["session"], r["D"]) in seen
        seen.add((r["session"], r["D"]))
    return revisits / total if total else 0.0


def setup_seconds(reply: dict, scaled: bool) -> float:
    """One interpreter's set-up time, scaled by the calibration it ran right
    after its import (scaled=True) or as measured."""
    first_calibration = reply["calibration"][0][1]
    return reply["setup_s"] * (CALIBRATION_NOMINAL_S / first_calibration if scaled else 1.0)


def timings(fixtures, seeded, good, setup_replies, scaled: bool) -> dict:
    """The timing metrics, from latencies scaled by each op's calibration
    (scaled=True) or as measured."""
    def ms(r):
        return r["seconds"] * 1000 * (r["scale"] if scaled else 1.0)

    latencies = [ms(r) for r in good]
    by_fixture = {}
    for r in fixtures:
        by_fixture.setdefault(ops.op_key(r["argv"]), []).append(ms(r))
    return {
        "setup_s": statistics.median(setup_seconds(rep, scaled) for rep in setup_replies),
        "fixture_ms": sum(statistics.median(v) for v in by_fixture.values()),
        "op_p50_ms": statistics.median(latencies),
        "op_tail_ms": tail(latencies)[0],
        "rows_per_s": 1000 * sum(r["rows"] for r in good) / sum(ms(r) for r in seeded),
    }


def end_to_end(records, session_replies, setup_replies) -> "tuple[dict, dict]":
    """The end-to-end metrics; setup_replies are the replies of every
    interpreter whose set-up time counts."""
    fixtures = [r for r in records if r["fixture"] and r["status"] not in FAILED]
    seeded = [r for r in records if not r["fixture"]]
    good = [r for r in seeded if r["status"] not in FAILED]
    if not fixtures or not good:
        raise BenchError("no successful fixture or seeded op to time")
    values = timings(fixtures, seeded, good, setup_replies, scaled=True)
    attempted = len(records)
    failed = sum(r["status"] in FAILED for r in records)
    values["ok_ratio"] = (attempted - failed) / attempted
    values["peak_rss_mb"] = max(rep["maxrss_kb"] for rep in session_replies) / 1024
    _, tail_p, beyond = tail([r["seconds"] for r in good])
    detail = {
        "unscaled": timings(fixtures, seeded, good, setup_replies, scaled=False),
        "median_op_scale": statistics.median(r["scale"] for r in records),
        "sessions": len(session_replies),
        "setup_samples": len(setup_replies),
        "fixture_ops": len(fixtures),
        "seeded_ops": len(seeded),
        "seeded_ok": len(good),
        "op_tail_percentile": tail_p,
        "op_tail_beyond": beyond,
        "timed_s": sum(r["seconds"] for r in records),
    }
    return values, detail


def layer_of(name: str) -> str:
    return tracer.LAYERS["hmsurf." + name.split(".", 1)[0]]


def per_layer(rollups, traced, plain) -> dict:
    funcs = {}
    distinct = {}
    for rollup in rollups:
        for name, (calls, self_s, raised) in rollup["functions"].items():
            acc = funcs.setdefault(name, [0, 0.0, 0])
            acc[0] += calls
            acc[1] += self_s
            acc[2] += raised
        for group, (n_distinct, n_calls) in rollup["distinct"].items():
            acc = distinct.setdefault(group, [0, 0])
            acc[0] += n_distinct
            acc[1] += n_calls

    def fn(name):
        return funcs.get(name, [0, 0.0, 0])

    def ratio(group):
        n_distinct, n_calls = distinct.get(group, [0, 0])
        return n_distinct / n_calls if n_calls else 0.0

    m = {}
    for layer in LAYER_NAMES:
        mine = [v for name, v in funcs.items() if layer_of(name) == layer]
        m[f"{layer}.calls"] = sum(v[0] for v in mine)
        m[f"{layer}.self_s"] = sum(v[1] for v in mine)
    for short, name in (("forms.h_narrow", "forms.h_narrow_indefinite"),
                        ("forms.h_definite", "forms.h_definite"),
                        ("field.make_field", "field.make_field"),
                        ("elliptic.enum", "elliptic.enumerate_elliptic_reps"),
                        ("chern.c1sq_bound", "chern.c1sq_lower_bound")):
        m[f"{short}.calls"] = fn(name)[0]
        m[f"{short}.self_s"] = fn(name)[1]
    for group in ("forms.h_definite", "field.make_field", "zeta", "elliptic.enum"):
        m[f"{group}.distinct_ratio"] = ratio(group)
    m["field.split_prime.self_s"] = fn("field.split_prime")[1]
    m["elliptic.enum.failed"] = fn("elliptic.enumerate_elliptic_reps")[2]
    rows = sum(r["rows"] for r in traced if r["argv"][0] == "table")
    m["chern.c1sq_evals_per_row"] = fn("chern.c1sq_lower_bound")[0] / rows if rows else 0.0
    m["chern.table_diff.self_s"] = fn("chern.table_diff")[1]
    m["cli.exit2"] = sum(r["rc"] == "2" for r in traced)
    m["cli.exit3"] = sum(r["rc"] == "3" for r in traced)
    m["trace.overhead_ratio"] = (sum(r["seconds"] * r["scale"] for r in traced)
                                 / sum(r["seconds"] * r["scale"] for r in plain))
    return m


# -- the run -----------------------------------------------------------------------


def declared(trace: bool) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(workload: str, seed: int, seconds: int, trace: bool) -> "tuple[dict, dict]":
    units = declared(trace)
    pools = ops.load_pools()
    goldens = load_goldens(workload)
    os.makedirs(RUN_DIR, exist_ok=True)
    workdir = os.path.join(RUN_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        ops.write_trees(workdir)
        stream = ops.sessions(workload, seed, pools, refused(goldens))
        if trace:
            sessions = list(itertools.islice(stream, ops.trace_session_count(workload, seconds)))
            for old in os.listdir(RUN_DIR):
                if old.startswith(f"spans-{workload}-"):
                    os.remove(os.path.join(RUN_DIR, old))
            plain, _ = execute(sessions, workdir, goldens)
            traced, traced_replies = execute(
                sessions, workdir, goldens, trace=True,
                spans_prefix=os.path.join(RUN_DIR, f"spans-{workload}-s{seed}"))
            mismatched = [ops.op_key(a["argv"]) for a, b in zip(plain, traced)
                          if (a["rc"], a["digest"]) != (b["rc"], b["digest"])]
            values = per_layer([rep["rollup"] for rep in traced_replies], traced, plain)
            records = traced
            detail = {"sessions": len(sessions), "ops": len(traced),
                      "traced_stdout_mismatch": mismatched}
            correct_extra = not mismatched and not any(
                r["status"] in INCORRECT for r in plain)
        else:
            probes = [spawn({}, workdir, setup_only=True) for _ in range(SETUP_PROBES)]
            records, session_replies = execute(stream, workdir, goldens,
                                               deadline=monotonic() + seconds)
            values, detail = end_to_end(records, session_replies, probes + session_replies)
            correct_extra = True
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if set(values) != set(units):
        raise BenchError(f"computed metrics {sorted(set(values) ^ set(units))} "
                         "disagree with BENCHMARK.json")
    detail.update({
        "workload": workload, "seed": seed, "trace": int(trace),
        "failures": counts(records),
        "unverified": sum(r["status"] == "unverified" for r in records),
        "known_fail_rc_changed": sum(r["status"] == "known_fail" and r["rc"] != r["golden_rc"]
                                     for r in records),
        "revisit_share": revisit_share(records),
    })
    if workload == "sweep":
        detail["dmax"] = [" ".join(r["argv"][2:]) for r in records if not r["fixture"]]
    attempted = len(records)
    failed = sum(r["status"] in FAILED for r in records)
    result = {
        "correct": correct_extra and not any(r["status"] in INCORRECT for r in records),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    return result, detail


def main() -> int:
    parser = argparse.ArgumentParser(description="hmsurf benchmark")
    parser.add_argument("--workload", required=True, choices=ops.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        result, detail = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print("# detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
