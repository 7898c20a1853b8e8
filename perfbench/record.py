"""Record the input pools and the goldens the benchmark checks against.

    python3 perfbench/record.py

Run from the root of a checkout of the reference commit.  When
`data/pools.json` is missing (delete it to rebuild it), it is built from that
commit's own functions: the 64 table
discriminants (dmax 853), the narrow-class-one primes up to 10^4, the
achievable prime norms of each, and eight fundamental -N per decade up to
10^7.  Then, for each workload, every op of its
universe (ops.universe) runs once through `hmsurf.cli.main` in this process,
and `data/goldens-<workload>.tsv.gz` gets one line per op: exit code, stdout
digest ('-' when the exit code is not 0) and the op's argv.
"""

import gzip
import json
import os
import random
import sys
import tempfile
import time

import ops
import worker

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def golden_path(workload: str) -> str:
    return os.path.join(ops.DATA_DIR, f"goldens-{workload}.tsv.gz")


def build_pools() -> dict:
    from hmsurf import chern, ntheory

    table = chern.default_discriminants(853)
    query = chern.default_discriminants(10_000)
    neg = []
    for k in range(1, 7):
        rng = random.Random(f"neg-{k}")
        picks = set()
        while len(picks) < 8:
            N = rng.randrange(10 ** k, 10 ** (k + 1))
            if ntheory.is_fundamental_discriminant(-N):
                picks.add(N)
        neg.append(sorted(picks))
    return {
        "table_discs": table,
        "query_discs": query,
        "exact_norms": {D: [q for q in range(2, 201) if chern.norm_achievable(D, q)]
                        for D in [5] + table},
        "query_norms": {D: [q for q in range(2, 31) if chern.norm_achievable(D, q)]
                        for D in query},
        "neg_discs": neg,
    }


def record(workload: str, cli, pools: dict) -> None:
    lines = []
    todo = {ops.op_key(argv): argv for argv in ops.universe(workload, pools)}
    start = time.monotonic()
    with tempfile.TemporaryDirectory(dir=os.path.dirname(ops.DATA_DIR)) as work:
        ops.write_trees(work)
        here = os.getcwd()
        os.chdir(work)
        try:
            for n, (key, argv) in enumerate(sorted(todo.items()), 1):
                rc, text, _ = worker.run_op(cli, argv)
                lines.append(f"{rc}\t{worker.digest(text) if rc == '0' else '-'}\t{key}\n")
                if n % 500 == 0:
                    print(f"{workload}: {n}/{len(todo)} ops, "
                          f"{time.monotonic() - start:.0f} s", file=sys.stderr)
        finally:
            os.chdir(here)
    with gzip.open(golden_path(workload), "wt", encoding="utf-8") as fh:
        fh.writelines(lines)
    failed = sum(not line.startswith("0\t") for line in lines)
    print(f"{workload}: {len(lines)} ops, {failed} fail at this commit", file=sys.stderr)


def main() -> int:
    cli = worker.import_cli(SRC)
    if not os.path.exists(ops.POOLS_PATH):
        pools = build_pools()
        with open(ops.POOLS_PATH, "w", encoding="utf-8") as fh:
            fh.write("{\n" + ",\n".join(
                f"{json.dumps(key)}: {json.dumps(val, separators=(',', ':'))}"
                for key, val in pools.items()) + "\n}\n")
    pools = ops.load_pools()
    for workload in ops.WORKLOADS:
        record(workload, cli, pools)
    return 0


if __name__ == "__main__":
    sys.exit(main())
