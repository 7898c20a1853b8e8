"""Run the benchmark on ten seeds and report each metric's spread.

    python3 perfbench/prove.py [--out perfbench/baseline.json]

For each workload, runs run.py on seeds 1 to 10 for BENCHMARK.json's
run_seconds each, with --trace 0, and prints, per
end-to-end metric, the median, the quartiles (statistics.quantiles, n=4) and
the spread (interquartile distance over the median) beside the metric's
bound from BENCHMARK.json, then the same for the unscaled times.  Then one --trace 1 run on the first seed gives
the per-layer figures.  With --out, everything is written as JSON together
with the Python version, platform, CPU count and mpmath backend.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import ops

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)


def one_run(workload: str, seed: int, seconds: int, trace: int) -> "tuple[dict, dict]":
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2][len("# detail "):])


def environment() -> dict:
    import mpmath

    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
    }


def summarize(values: "list[float]") -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    report = {"environment": environment(), "seconds": seconds,
              "seeds": list(SEEDS), "workloads": {}}
    for workload in ops.WORKLOADS:
        values = {}
        unscaled = {}
        details = []
        for seed in SEEDS:
            result, detail = one_run(workload, seed, seconds, 0)
            if not result["correct"]:
                print(f"{workload} seed {seed}: correct is false", file=sys.stderr)
            details.append(detail)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            for name, value in detail["unscaled"].items():
                unscaled.setdefault(name, []).append(value)
        summary = {name: summarize(vals) for name, vals in values.items()}
        summary_unscaled = {name: summarize(vals) for name, vals in unscaled.items()}
        print(f"{workload}:")
        for name, s in summary.items():
            flag = "" if s["spread"] < bounds[name] / 3 else "  <-- over a third of the bound"
            print(f"  {name:14s} median {s['median']:12.5g}  q1 {s['q1']:12.5g}  "
                  f"q3 {s['q3']:12.5g}  spread {s['spread']:.3f}  bound {bounds[name]}{flag}")
        for name, s in summary_unscaled.items():
            print(f"  unscaled {name:14s} median {s['median']:12.5g}  spread {s['spread']:.3f}")
        layers, trace_detail = one_run(workload, SEEDS[0], seconds, 1)
        report["workloads"][workload] = {
            "end_to_end": summary,
            "unscaled": summary_unscaled,
            "revisit_share": statistics.median(d["revisit_share"] for d in details),
            "failures_first_seed": details[0]["failures"],
            "per_layer_first_seed": {k: v["value"] for k, v in layers["metrics"].items()},
            "traced_stdout_mismatch": trace_detail["traced_stdout_mismatch"],
        }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
