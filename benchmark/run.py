#!/usr/bin/env python3
"""Build hpccbench, run it, and summarise or compare its runs.

One run (the form BENCHMARK.json's command takes; the last line of stdout
is the result JSON):

    python3 benchmark/run.py --workload W --seed S --seconds T --trace 0|1

Repeated runs, each workload in its own process, workload order
alternating between repeats; prints every metric with its unit, n, median
and quartiles, and exits non-zero on any check failure:

    python3 benchmark/run.py --repeat 10 [--out FILE]

The committed ledger (two sets of ten seeds, one traced run per workload,
and traced runs of the full-scale LU points) for the checked-out commit:

    python3 benchmark/run.py --ledger

Compare two results files under the BENCHMARK.json bounds, and check that
BENCHMARK.json matches `hpccbench --list`:

    python3 benchmark/run.py --compare A.json B.json
    python3 benchmark/run.py --check-manifest

Everything is read and written inside the checkout; the build goes to
build-bench/hpccbench.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / "build-bench" / "hpccbench"
BIN = BUILD / "hpccbench"
OUT = ROOT / "build-bench" / "runs"
MANIFEST = ROOT / "BENCHMARK.json"
RESULTS = Path(__file__).resolve().parent / "results"
DEV_SEED = 1992  # held out: 2026
RUN_TIMEOUT_S = 170
FULL_SCALE_LU = [("hpl_delta", 25000), ("columbia_lu_t4", 2048)]


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configure once, then let the build tool bring hpccbench up to date."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not any((BUILD / f).exists() for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", str(ROOT / "benchmark"), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "hpccbench",
                    "-j", jobs], check=True, stdout=sys.stderr)


def run_one(workload, seed, seconds, traced, lu_n=0, echo=True):
    """One hpccbench process; returns its JSON record, or None if it died."""
    OUT.mkdir(parents=True, exist_ok=True)
    stem = OUT / f"{workload}-{seed}{'-traced' if traced else ''}"
    json_path = Path(f"{stem}.json")
    json_path.unlink(missing_ok=True)
    cmd = [str(BIN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--json", str(json_path)]
    if traced:
        cmd += ["--trace", str(stem)]
    if lu_n:
        cmd += ["--lu-n", str(lu_n)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload} seed {seed}: timed out after {RUN_TIMEOUT_S} s")
        return None
    if echo:
        sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    if not json_path.exists():
        log(f"{workload} seed {seed}: exited {proc.returncode}, no result")
        return None
    return json.loads(json_path.read_text())


def result_line(rec):
    return json.dumps({"correct": rec["correct"],
                       "attempted": rec["attempted"],
                       "failed": rec["failed"],
                       "metrics": rec["metrics"]})


def slim(rec):
    """What a results file keeps of one run."""
    keep = ["workload", "seed", "traced", "threads", "work_unit", "nproc",
            "host_probe_ms", "sampled_probe_us", "sim_digest", "correct",
            "attempted", "failed", "errors"]
    out = {k: rec[k] for k in keep}
    out["iterations"] = len(rec["iterations"])
    out["metrics"] = {k: v["value"] for k, v in rec["metrics"].items()}
    if rec["traced"]:
        out["layers"] = rec["layers"]
    return out


def load_manifest():
    return json.loads(MANIFEST.read_text())


def workload_names():
    return [w["name"] for w in load_manifest()["workloads"]]


def repeat(workloads, seeds, seconds, traced=False):
    """Every (seed, workload) pair in its own process; odd repeats run the
    workloads in reverse order so no workload always runs first."""
    runs = []
    for r, seed in enumerate(seeds):
        order = workloads if r % 2 == 0 else workloads[::-1]
        for w in order:
            rec = run_one(w, seed, seconds, traced, echo=False)
            if rec is None:
                runs.append({"workload": w, "seed": seed, "correct": False,
                             "attempted": 1, "failed": 1, "metrics": {},
                             "errors": ["no result"], "sim_digest": None})
                continue
            runs.append(slim(rec))
            m = runs[-1]["metrics"]
            log(f"[{r + 1}/{len(seeds)}] {w} seed {seed}: " +
                ", ".join(f"{k}={v:.6g}" for k, v in m.items()
                          if k in ("wall_s", "work_rate")) +
                f" digest {runs[-1]['sim_digest']}" +
                ("" if runs[-1]["correct"] else " CHECK FAILED"))
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def summarise(runs, specs):
    """Print each metric per workload; return False on any check failure."""
    ok = True
    by_w = {}
    for r in runs:
        by_w.setdefault(r["workload"], []).append(r)
    print(f"{'workload':<18} {'metric':<16} {'unit':<6} {'n':>3} "
          f"{'median':>12} {'q1':>12} {'q3':>12} {'spread':>7}")
    for w, rs in by_w.items():
        for spec in specs:
            vals = [r["metrics"][spec["name"]] for r in rs
                    if spec["name"] in r["metrics"]]
            if not vals:
                continue
            q1, med, q3 = quartiles(vals)
            print(f"{w:<18} {spec['name']:<16} {spec['unit']:<6} "
                  f"{len(vals):>3} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{100 * spread(vals):>6.2f}%")
        attempted = sum(r["attempted"] for r in rs)
        failed = sum(r["failed"] for r in rs)
        bad = [r for r in rs if not r["correct"]]
        digests = {}
        for r in rs:
            digests.setdefault(r["seed"], set()).add(r["sim_digest"])
        unstable = [s for s, d in digests.items() if len(d) > 1]
        print(f"{w:<18} fail_ratio {failed}/{attempted}, "
              f"{len(bad)} failed run(s), "
              f"{len(unstable)} seed(s) with differing sim_digest")
        for r in bad:
            print(f"  seed {r['seed']}: {'; '.join(r['errors'][:3])}")
        ok = ok and not bad and not unstable
    print(f"host: nproc {runs[0].get('nproc')}, {probe_medians(runs)}")
    return ok


def probe_medians(runs):
    """The host speed the runs saw: the start-up probe and the probe
    sampled during the iterations, each a median over the runs."""
    def med(key):
        vals = [r[key] for r in runs if key in r]
        return statistics.median(vals) if vals else 0.0
    return (f"host probe median {med('host_probe_ms'):.1f} ms, sampled "
            f"probe median {med('sampled_probe_us'):.1f} us")


def short_sha():
    return subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True,
                          check=True).stdout.strip()


def ledger(seconds, seeds):
    manifest = load_manifest()
    workloads = workload_names()
    sets = []
    for i in range(2):
        log(f"== set {i + 1} of 2: {len(seeds)} seeds x "
            f"{len(workloads)} workloads ==")
        sets.append(repeat(workloads, seeds, seconds))
    log("== traced runs ==")
    traced = []
    for w in workloads:
        rec = run_one(w, DEV_SEED, seconds, True, echo=False)
        traced.append(slim(rec) if rec else {"workload": w, "correct": False})
    # The full-scale points the two LU workloads are cut down from: fig1's
    # n=25,000 (where its time goes, ROADMAP item 1) and Columbia LU at
    # n=2048 (whether the small size's thread speedup carries over).
    for w, n in FULL_SCALE_LU:
        rec = run_one(w, DEV_SEED, seconds, True, lu_n=n, echo=False)
        full = slim(rec) if rec else {"workload": w, "correct": False}
        full["lu_n"] = n
        traced.append(full)
    doc = {"commit": short_sha(), "seeds": seeds, "run_seconds": seconds,
           "end_to_end": manifest["end_to_end"], "sets": sets,
           "traced": traced}
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{doc['commit']}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    log(f"wrote {path.relative_to(ROOT)}")
    ok = True
    for i, s in enumerate(sets):
        print(f"== set {i + 1} ==")
        ok = summarise(s, manifest["end_to_end"]) and ok
    ok = all(t.get("correct") for t in traced) and ok
    if not ok:
        log("ledger: check failures, see above")
    return ok


def all_runs(doc):
    return [r for s in doc["sets"] for r in s]


def metric_runs(doc, workload, name):
    """(set index, seed) -> value over every set of a results file, so the
    repeated seeds of a second set do not replace the first set's runs."""
    return {(i, r["seed"]): r["metrics"][name]
            for i, s in enumerate(doc["sets"]) for r in s
            if r["workload"] == workload and name in r["metrics"]}


def verdict(va, vb, lower, bound, pairs):
    """Gain of B over A (a share of A's median, > 0 is better) and the
    choosing-metrics guide's verdict on it."""
    beats = (lambda x, y: x < y) if lower else (lambda x, y: x > y)
    ma, mb = statistics.median(va), statistics.median(vb)
    gain = (ma - mb) / ma if lower else (mb - ma) / ma
    if all(beats(y, x) for x in va for y in vb):
        return gain, "better (every B run beats every A run)"
    if max(spread(va), spread(vb)) > bound:
        return gain, "unresolved (spread exceeds the bound)"
    if -gain > bound:
        return gain, "REGRESSION"
    wins = sum(beats(y, x) for x, y in pairs)
    if pairs and wins >= 0.9 * len(pairs) and gain > spread(va):
        return gain, f"improved (B wins {wins}/{len(pairs)} pairs)"
    return gain, "ok"


def health(a, b):
    """Reasons B may not be compared with A as a like-for-like run: more
    failed operations, a failed check, or different simulated results."""
    problems = []
    failed = [sum(r["failed"] for r in runs) for runs in (a, b)]
    if failed[1] > failed[0]:
        problems.append(f"B failed {failed[1]} operations, A {failed[0]}")
    bad = [r for r in b if not r["correct"]]
    if bad:
        problems.append(f"{len(bad)} B run(s) failed their checks")
    digests = [{}, {}]
    for d, runs in zip(digests, (a, b)):
        for r in runs:
            d.setdefault((r["workload"], r["seed"]), set()).add(
                r["sim_digest"])
    shared = digests[0].keys() & digests[1].keys()
    differ = sorted(k for k in shared if digests[0][k] != digests[1][k])
    print(f"sim_digest differs on {len(differ)} of {len(shared)} shared "
          "(workload, seed) pairs")
    if differ:
        problems.append("simulated results differ: " + ", ".join(
            f"{w} seed {s}" for w, s in differ[:6]))
    return problems


def compare(path_a, path_b):
    """B against A under the manifest's bounds, per (metric, workload).
    Fails on a regression, and on any health problem of B, which also
    withholds every 'improved' verdict."""
    doc_a = json.loads(Path(path_a).read_text())
    doc_b = json.loads(Path(path_b).read_text())
    a, b = all_runs(doc_a), all_runs(doc_b)
    problems = health(a, b)
    regressions = 0
    print(f"{'workload':<18} {'metric':<14} {'nA':>3} {'nB':>3} "
          f"{'A median':>12} {'B median':>12} {'gain':>8} {'bound':>6}  "
          "verdict")
    for spec in load_manifest()["end_to_end"]:
        name, bound = spec["name"], spec["bound"]
        for w in workload_names():
            ra = metric_runs(doc_a, w, name)
            rb = metric_runs(doc_b, w, name)
            if not ra or not rb:
                continue
            pairs = [(ra[k], rb[k]) for k in ra.keys() & rb.keys()]
            gain, v = verdict(list(ra.values()), list(rb.values()),
                              spec["better"] == "lower", bound, pairs)
            regressions += v == "REGRESSION"
            if problems and v.startswith(("improved", "better")):
                v = "gain withheld (B is unhealthy, see below)"
            print(f"{w:<18} {name:<14} {len(ra):>3} {len(rb):>3} "
                  f"{statistics.median(ra.values()):>12.6g} "
                  f"{statistics.median(rb.values()):>12.6g} "
                  f"{100 * gain:>+7.2f}% {bound:>6.2f}  {v}")
    # The probes tell whether A and B ran on a similarly loaded host.
    print(f"A: {probe_medians(a)}")
    print(f"B: {probe_medians(b)}")
    for p in problems:
        print(f"B is unhealthy: {p}")
    return regressions == 0 and not problems


def check_manifest():
    listed = OUT / "manifest.json"
    OUT.mkdir(parents=True, exist_ok=True)
    subprocess.run([str(BIN), "--list", "--json", str(listed)], check=True)
    want = json.loads(listed.read_text())
    have = load_manifest()
    problems = []
    if have.get("run_seconds") != want["run_seconds"]:
        problems.append(f"run_seconds {have.get('run_seconds')} != "
                        f"{want['run_seconds']}")
    fields = {"workloads": ("name", "why"),
              "end_to_end": ("name", "unit", "better", "bound"),
              "per_layer": ("name", "unit", "better")}
    for key, keys in fields.items():
        a = [tuple(e.get(k) for k in keys) for e in have.get(key, [])]
        b = [tuple(e[k] for k in keys) for e in want[key]]
        for item in a:
            if item not in b:
                problems.append(f"{key}: BENCHMARK.json has {item}, "
                                "hpccbench does not")
        for item in b:
            if item not in a:
                problems.append(f"{key}: hpccbench has {item}, "
                                "BENCHMARK.json does not")
    for p in problems:
        print(p)
    print("manifest: " + ("OK" if not problems else
                          f"{len(problems)} disagreement(s)"))
    return not problems


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=DEV_SEED)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeat", type=int, help="seeds per workload")
    p.add_argument("--out", help="write the repeated runs here")
    p.add_argument("--ledger", action="store_true")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    p.add_argument("--check-manifest", action="store_true")
    args = p.parse_args()

    if args.compare:
        return 0 if compare(*args.compare) else 1
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 2
    if args.check_manifest:
        return 0 if check_manifest() else 1
    seconds = args.seconds or load_manifest()["run_seconds"]
    if args.ledger:
        return 0 if ledger(seconds, list(range(DEV_SEED, DEV_SEED + 10))) \
            else 1
    if args.repeat:
        seeds = list(range(args.seed, args.seed + args.repeat))
        runs = repeat(workload_names(), seeds, seconds, bool(args.trace))
        if args.out:
            Path(args.out).write_text(json.dumps({"sets": [runs]}, indent=1))
        specs = (load_manifest()["per_layer"] if args.trace
                 else load_manifest()["end_to_end"])
        return 0 if summarise(runs, specs) else 1
    if not args.workload:
        p.error("--workload (or --repeat, --ledger, --compare, "
                "--check-manifest) is required")
    rec = run_one(args.workload, args.seed, seconds, bool(args.trace))
    if rec is None:
        return 2
    print(result_line(rec))
    return 0 if rec["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
