#!/usr/bin/env python3
"""Alternated A/B runs of one benchmark workload in two checkouts.

    tools/ab_pairs.py A_DIR B_DIR --workload W [--pairs 10] [--seed 1992]

Pair i runs `python3 benchmark/run.py --workload W --seed S+i` once in each
checkout, at BENCHMARK.json's run_seconds, A first on even pairs and B
first on odd ones, so neither side always runs on a host the other has
just warmed or loaded.
Each run.py builds its own checkout's hpccbench first; this script only
reads what it prints and the run record it leaves in build-bench/runs/.

Prints one row per pair (every BENCHMARK.json end-to-end metric as A/B,
failed operations, and whether the two sim_digests are the same), then
per metric: both medians and the change between them, each side's
quartiles and spread (interquartile range over the median), and in how
many pairs B beat A in the metric's better direction.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmark"))
sys.dont_write_bytecode = True  # leave no __pycache__ in benchmark/
from run import load_manifest, quartiles, spread  # noqa: E402


def label(checkout):
    """The checkout's short commit ("-dirty" with uncommitted changes), or
    its directory name when it is not a git checkout (an exported tree)."""
    def git(*cmd):
        return subprocess.run(["git", "-C", str(checkout), *cmd],
                              capture_output=True, text=True).stdout.strip()
    if git("rev-parse", "--show-toplevel") != str(checkout):
        return checkout.name
    return git("describe", "--always", "--dirty")


def run(checkout, workload, seed):
    """One run.py process; returns (metrics, failed, digest), or None when
    the run left no result."""
    cmd = [sys.executable, str(checkout / "benchmark" / "run.py"),
           "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    record = checkout / "build-bench" / "runs" / f"{workload}-{seed}.json"
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if result is None or not record.exists():
        sys.stderr.write(proc.stderr)
        return None
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    digest = json.loads(record.read_text()).get("sim_digest")
    return metrics, result["failed"], digest


def fmt(v):
    return "-" if v is None else f"{v:.4g}"


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("a", type=Path, help="checkout A (the baseline)")
    p.add_argument("b", type=Path, help="checkout B (the change)")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1992)
    args = p.parse_args()
    a, b = args.a.resolve(), args.b.resolve()
    specs = load_manifest()["end_to_end"]

    runs = []  # (seed, order, result A, result B)
    for i in range(args.pairs):
        seed = args.seed + i
        order = "A,B" if i % 2 == 0 else "B,A"
        got = {}
        for side in order.split(","):
            got[side] = run(a if side == "A" else b, args.workload, seed)
        runs.append((seed, order, got["A"], got["B"]))
        print(f"pair {i} done", file=sys.stderr, flush=True)

    print(f"{args.workload}, A = {label(a)}, B = {label(b)}")
    print("pair seed order  " +
          "  ".join(f"{s['name']} A/B" for s in specs) +
          "  failed A/B  digest")
    for i, (seed, order, ra, rb) in enumerate(runs):
        cells = []
        for s in specs:
            va = ra[0].get(s["name"]) if ra else None
            vb = rb[0].get(s["name"]) if rb else None
            cells.append(f"{fmt(va)}/{fmt(vb)}")
        failed = (f"{ra[1] if ra else '-'}/{rb[1] if rb else '-'}")
        digest = ("same" if ra and rb and ra[2] == rb[2] else "DIFFERENT")
        print(f"{i:<4} {seed} {order}   " + "  ".join(cells) +
              f"  {failed}  {digest}")

    for s in specs:
        name, lower = s["name"], s["better"] == "lower"
        pairs = [(ra[0][name], rb[0][name]) for _, _, ra, rb in runs
                 if ra and rb and name in ra[0] and name in rb[0]]
        if not pairs:
            continue
        va, vb = [x for x, _ in pairs], [y for _, y in pairs]
        qa, qb = quartiles(va), quartiles(vb)
        change = 100 * (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
        wins = sum((y < x) if lower else (y > x) for x, y in pairs)
        sa, sb = 100 * spread(va), 100 * spread(vb)
        print(f"{name}: median A {fmt(qa[1])} -> B {fmt(qb[1])} "
              f"({change:+.1f}%), A quartiles {fmt(qa[0])}-{fmt(qa[2])} "
              f"(spread {sa:.0f}% of median), B quartiles "
              f"{fmt(qb[0])}-{fmt(qb[2])} (spread {sb:.0f}% of median)"
              f", B better in {wins}/{len(pairs)} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
