#!/usr/bin/env python3
"""Spread and comparison of benchmark runs.

  spread:  run workloads N times with seeds 1..N, each for BENCHMARK.json's
           run_seconds, store every result line, and print each metric's
           median, quartiles and spread (interquartile distance / median)
           against its bound.

    python3 e2ebench/tools.py spread --runs 10 \\
        --workload co_checkout --workload analytic --out a.jsonl

  compare: take two stored sets of runs and print, per workload and
           end-to-end metric, both medians and quartiles and the share of
           seed-paired runs the second set wins. A metric whose second median
           is worse than the first by more than its bound is flagged WORSE; one
           whose spread in either set is wider than its bound is UNRESOLVED. A
           rise in the share of failed operations is flagged too.

    python3 e2ebench/tools.py compare a.jsonl b.jsonl

  names:   run every workload briefly on a tiny instance, traced and
           untraced, and check that the printed metric names and units are
           exactly those of BENCHMARK.json and use only [A-Za-z0-9_.-].

    python3 e2ebench/tools.py names

Bounds, units and directions come from BENCHMARK.json at the checkout root.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = HERE.parent / "BENCHMARK.json"


def load_spec():
    with open(SPEC) as f:
        return json.load(f)


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def load_runs(path):
    runs = []
    with open(path) as f:
        for line in f:
            if line.strip():
                runs.append(json.loads(line))
    return runs


def by_workload(runs):
    out = {}
    for r in runs:
        out.setdefault(r["workload"], []).append(r)
    return out


def cmd_spread(args):
    spec = load_spec()
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    seconds = spec["run_seconds"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    out = open(args.out, "a") if args.out else None
    ok = True
    for name in workloads:
        results = []
        for seed in range(1, args.runs + 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", "1" if args.trace else "0"],
                stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print("%s seed %d: exit %d" % (name, seed, proc.returncode))
                ok = False
                continue
            result = json.loads(lines[-1])
            record = {"workload": name, "seed": seed, "result": result}
            results.append(record)
            if out:
                out.write(json.dumps(record) + "\n")
                out.flush()
        print_spread(name, results, metrics)
    if out:
        out.close()
    return 0 if ok else 1


def print_spread(name, results, metrics):
    if not results:
        return
    att = sum(r["result"]["attempted"] for r in results)
    fail = sum(r["result"]["failed"] for r in results)
    correct = all(r["result"]["correct"] for r in results)
    print("== %s: %d runs, correct=%s, failed %d of %d" %
          (name, len(results), correct, fail, att))
    print("  %-26s %14s %14s %14s %8s %6s" %
          ("metric", "q1", "median", "q3", "spread", "bound"))
    for m in metrics:
        vals = [r["result"]["metrics"][m["name"]]["value"] for r in results
                if m["name"] in r["result"]["metrics"]]
        if not vals:
            print("  %-26s missing" % m["name"])
            continue
        q1, med, q3 = quartiles(vals)
        bound = m.get("bound")
        s = spread(vals)
        flag = ""
        if bound is not None:
            flag = "OVER" if s > bound else ("ok" if s < bound / 3 else "wide")
        print("  %-26s %14.6g %14.6g %14.6g %8.4f %6s %s" %
              (m["name"], q1, med, q3, s,
               "" if bound is None else "%.2f" % bound, flag))


def cmd_compare(args):
    spec = load_spec()
    a = by_workload(load_runs(args.first))
    b = by_workload(load_runs(args.second))
    worse = 0
    for w in spec["workloads"]:
        name = w["name"]
        if name not in a or name not in b:
            print("== %s: missing in one set" % name)
            continue
        ra, rb = a[name], b[name]
        share_a = (sum(r["result"]["failed"] for r in ra) /
                   max(1, sum(r["result"]["attempted"] for r in ra)))
        share_b = (sum(r["result"]["failed"] for r in rb) /
                   max(1, sum(r["result"]["attempted"] for r in rb)))
        print("== %s: %d vs %d runs, failed share %.6g vs %.6g%s" %
              (name, len(ra), len(rb), share_a, share_b,
               "  FAILED-SHARE-ROSE" if share_b > share_a else ""))
        if share_b > share_a:
            worse += 1
        seeds_b = {r["seed"]: r for r in rb}
        for m in spec["end_to_end"]:
            key, bound = m["name"], m["bound"]
            lower = m["better"] == "lower"
            va = [r["result"]["metrics"][key]["value"] for r in ra]
            vb = [r["result"]["metrics"][key]["value"] for r in rb]
            qa, qb = quartiles(va), quartiles(vb)
            wins = pairs = 0
            for r in ra:
                other = seeds_b.get(r["seed"])
                if other is None:
                    continue
                x = r["result"]["metrics"][key]["value"]
                y = other["result"]["metrics"][key]["value"]
                pairs += 1
                if (y < x) if lower else (y > x):
                    wins += 1
            change = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            worse_by = change if lower else -change
            flags = []
            if worse_by > bound:
                flags.append("WORSE")
                worse += 1
            if spread(va) > bound or spread(vb) > bound:
                flags.append("UNRESOLVED")
            print("  %-12s %12.6g [%.6g, %.6g]  ->  %12.6g [%.6g, %.6g]  "
                  "%+7.2f%%  wins %d/%d  %s" %
                  (key, qa[1], qa[0], qa[2], qb[1], qb[0], qb[2],
                   100 * change, wins, pairs, " ".join(flags)))
    return 1 if worse else 0


NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def cmd_names(_args):
    spec = load_spec()
    bad = 0
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[key]}
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", w["name"],
                 "--seed", "1", "--seconds", "1", "--trace", str(trace),
                 "--small"], stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print("FAIL %s trace=%d: exit %d" % (w["name"], trace,
                                                     proc.returncode))
                bad += 1
                continue
            got = {k: v["unit"] for k, v in
                   json.loads(lines[-1])["metrics"].items()}
            problems = [n for n in got if not NAME.match(n)]
            if got != want:
                problems += sorted(set(got) ^ set(want))
                problems += [n for n in got if n in want and got[n] != want[n]]
            print("%s %s trace=%d: %d metrics%s" %
                  ("ok  " if not problems else "FAIL", w["name"], trace,
                   len(got), "" if not problems else " " + ", ".join(problems)))
            bad += 1 if problems else 0
    return 1 if bad else 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    s = sub.add_parser("spread")
    s.add_argument("--workload", action="append")
    s.add_argument("--runs", type=int, default=10)
    s.add_argument("--trace", action="store_true")
    s.add_argument("--out")
    c = sub.add_parser("compare")
    c.add_argument("first")
    c.add_argument("second")
    sub.add_parser("names")
    args = p.parse_args()
    commands = {"spread": cmd_spread, "compare": cmd_compare,
                "names": cmd_names}
    sys.exit(commands[args.cmd](args))


if __name__ == "__main__":
    main()
