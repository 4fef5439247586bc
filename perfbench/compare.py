#!/usr/bin/env python3
"""Record sets of benchmark runs and compare them.

    # Parent and change sets in alternating pairs: for each seed and
    # workload (or --workloads a,b), run both checkouts back to back, the
    # parent first on the first, third, ... seed and the change first on
    # the others, so that a slow phase of the host falls on both; append
    # one JSON line per run to each set file. Give one checkout twice for
    # two sets of the same code.
    python3 perfbench/compare.py record PARENT_DIR CHANGE_DIR
        PARENT.jsonl CHANGE.jsonl [--seeds 1-10]

    # Spread of one set: IQR / median per workload x end-to-end metric,
    # against the metric's bound in BENCHMARK.json.
    python3 perfbench/compare.py spread SET.jsonl

    # Parent set vs change set: medians, quartiles, pairwise win fraction
    # and a verdict per workload x end-to-end metric.
    python3 perfbench/compare.py compare PARENT.jsonl CHANGE.jsonl

Verdicts. A pair is the parent's and the change's run with the same seed
(runs are paired in order when seeds differ); ties count for neither side.
  failed        a run of the workload, in either set, was not correct, had
                failed requests or printed no result; its figures do not
                count.
  improved      the change wins at least 9/10 of the pairs and its median
                is better than the parent's by more than the parent's own
                spread (the distance between its quartiles).
  regressed     the change's median is worse than the parent's by more than
                the bound, and the spread is within the bound or the change
                loses at least 9/10 of the pairs.
  unresolved    the spread of either set is wider than the bound, unless
                every run of the change reads better than every parent run.
  within bound  otherwise.
Exits 1 when any verdict is "failed" or "regressed" (compare), or when
any workload failed or any spread exceeds its bound (spread).
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_one(root, workload, seed, trace):
    """Runs the benchmark command of the checkout at `root`; one set row."""
    cmd = ["python3", "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
           "--trace", str(trace)]
    start = time.monotonic()
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    wall = time.monotonic() - start
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        # A run that printed no result counts as a failed run of the set.
        sys.stderr.write(done.stderr[-4000:])
        lines = ['{"correct": false, "attempted": 1, "failed": 1, '
                 '"metrics": {}}']
    result = json.loads(lines[-1])
    provenance = next((json.loads(l)["provenance"] for l in lines[:-1]
                       if l.startswith('{"provenance"')), None)
    ok = result["correct"] and result["failed"] == 0
    print(f"{root}: {workload} seed {seed}: {'ok' if ok else 'FAILED'} "
          f"({wall:.1f} s)", flush=True)
    return {"workload": workload, "seed": seed, "trace": trace,
            "wall_s": wall, "provenance": provenance, "result": result}


def workloads_of(args):
    return (args.workloads.split(",") if args.workloads
            else [w["name"] for w in SPEC["workloads"]])


def record(args):
    sides = [(args.parent_root, args.parent_set),
             (args.change_root, args.change_set)]
    for i, seed in enumerate(parse_seeds(args.seeds)):
        for w in workloads_of(args):
            for root, path in (sides if i % 2 == 0 else sides[::-1]):
                row = run_one(root, w, seed, args.trace)
                with open(path, "a") as out:
                    out.write(json.dumps(row) + "\n")


def load(path):
    """({workload: [(seed, {metric: value}), ...]}, {failed workloads}) of
    the untraced runs."""
    runs, failed = {}, set()
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        row = json.loads(line)
        if row.get("trace", 0) != 0:
            continue
        result = row["result"]
        if not result["correct"] or result["failed"]:
            print(f"{path}: {row['workload']} seed {row['seed']}: "
                  f"correct={result['correct']} failed={result['failed']}",
                  file=sys.stderr)
            failed.add(row["workload"])
        values = {k: v["value"] for k, v in result["metrics"].items()}
        runs.setdefault(row["workload"], []).append((row["seed"], values))
    return runs, failed


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread_of(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def spread(args):
    runs, failed = load(args.set)
    bad = bool(failed)
    print(f"{'workload':32} {'metric':20} {'n':>3} {'median':>14} "
          f"{'iqr/med':>8} {'bound':>6}")
    for w, rows in sorted(runs.items()):
        for name, m in END_TO_END.items():
            values = [v[name] for _, v in rows if name in v]
            if not values:
                continue
            s = spread_of(values)
            flag = ""
            if w in failed:
                flag = "FAILED"
            elif s > m["bound"]:
                flag, bad = "OVER BOUND", True
            elif s > m["bound"] / 3:
                flag = "over bound/3"
            print(f"{w:32} {name:20} {len(values):3d} "
                  f"{statistics.median(values):14.6g} {s:8.4f} "
                  f"{m['bound']:6.3f} {flag}")
    return 1 if bad else 0


def pairs(parent_rows, change_rows):
    by_seed = dict(change_rows)
    matched = [(v, by_seed[s]) for s, v in parent_rows if s in by_seed]
    if matched:
        return matched
    return [(a, b) for (_, a), (_, b) in zip(parent_rows, change_rows)]


def verdict(metric, parent, change, pair_list):
    higher = metric["better"] == "higher"
    bound = metric["bound"]

    def better(a, b):  # does b read better than a?
        return b > a if higher else b < a

    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(better(a, b) for a, b in pair_list)
    losses = sum(better(b, a) for a, b in pair_list)
    n = len(pair_list) or 1
    worse = ((pm - cm) if higher else (cm - pm)) / abs(pm) if pm else 0.0
    widest = max(spread_of(parent), spread_of(change))
    all_better = all(better(p, c) for p in parent for c in change)
    if wins >= 0.9 * n and better(pm, cm) and abs(cm - pm) > (p3 - p1):
        v = "improved"
    elif worse > bound and (widest <= bound or losses >= 0.9 * n):
        v = "regressed"
    elif widest > bound and not all_better:
        v = "unresolved"
    else:
        v = "within bound"
    return (p1, pm, p3), (c1, cm, c3), wins / n, worse, v


def compare(args):
    (parent, parent_failed), (change, change_failed) = (
        load(args.parent), load(args.change))
    failed = parent_failed | change_failed
    bad = bool(failed)
    print(f"{'workload':32} {'metric':20} {'parent q1/med/q3':>36} "
          f"{'change q1/med/q3':>36} {'win':>5} {'worse':>7} verdict")
    for w in sorted(set(parent) & set(change)):
        if w in failed:
            print(f"{w:32} {'every metric':20} {'':>36} {'':>36} "
                  f"{'':>5} {'':>7} failed")
            continue
        pair_list_all = pairs(parent[w], change[w])
        for name, m in END_TO_END.items():
            pv = [v[name] for _, v in parent[w] if name in v]
            cv = [v[name] for _, v in change[w] if name in v]
            if not pv or not cv:
                continue
            pl = [(a[name], b[name]) for a, b in pair_list_all
                  if name in a and name in b]
            pq, cq, win, worse, v = verdict(m, pv, cv, pl)
            bad |= v == "regressed"
            fmt = lambda q: "/".join(f"{x:.6g}" for x in q)
            print(f"{w:32} {name:20} {fmt(pq):>36} {fmt(cq):>36} "
                  f"{win:5.2f} {worse:+7.3f} {v}")
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("record")
    for name in ("parent_root", "change_root", "parent_set", "change_set"):
        r.add_argument(name)
    r.add_argument("--seeds", default="1-10")
    r.add_argument("--workloads", default="")
    r.add_argument("--trace", type=int, choices=(0, 1), default=0)
    s = sub.add_parser("spread")
    s.add_argument("set")
    c = sub.add_parser("compare")
    c.add_argument("parent")
    c.add_argument("change")
    args = ap.parse_args()
    if args.cmd == "record":
        record(args)
        return 0
    return spread(args) if args.cmd == "spread" else compare(args)


if __name__ == "__main__":
    sys.exit(main())
