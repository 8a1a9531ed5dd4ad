#!/usr/bin/env python3
"""A/B comparison of two checkouts on one perfbench workload.

Usage:

    python3 scripts/perfbench_ab.py PARENT_DIR CHANGE_DIR --workload W
        [--pairs 10] [--seed 42] [--seconds 30]

PARENT_DIR and CHANGE_DIR are two checkouts of the repository (for example
a `git worktree` or `git clone` of the parent commit next to the change).
Each pair runs `python3 perfbench/run.py --trace 0` once in each checkout,
alternating which side runs first, so slow drifts of the host hit both
sides alike. Each checkout builds perfbench into its own `.bench_build/`;
neither `perfbench/` nor `BENCHMARK.json` is changed.

For every end-to-end metric that PARENT_DIR/BENCHMARK.json declares, the
report gives both sides' medians and quartiles, the pairs the change won,
whether a gain claim holds (the change wins at least 9 of every 10 pairs
and its median beats the parent's by more than the parent's interquartile
range), and whether the change is worse than the metric's bound (read as a
fraction of the parent's median, as perfbench/README.md compares bounds
with spreads). It also says whether every run printed the same
deterministic `facts:` line (events, transactions, messages); when not, it
prints each distinct line with the side and the number of runs that printed
it, and names the fields that differ.

Exit status: 0 when every run reports `correct: true`, 1 when any run
reports `correct: false`, 2 when a run fails to produce a report.
"""

import argparse
import collections
import json
import os
import statistics
import subprocess
import sys


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def run_once(checkout, args):
    """One perfbench run in `checkout`: its last JSON line, plus its
    deterministic `facts:` line."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{checkout}: run.py printed nothing "
                           f"(exit {proc.returncode})")
    facts = next((l for l in lines if l.startswith("facts: ")), "")
    return json.loads(lines[-1]), facts


def fact_fields(line):
    """The `key=value` fields of a `facts:` line, in order."""
    return dict(f.split("=", 1) for f in line.split()[1:] if "=" in f)


def facts_report(facts):
    """Text saying whether every run printed the same `facts:` line; if not,
    each distinct line labelled with its side and run count, and the fields
    whose values differ."""
    lines = {line for side in facts for line in facts[side]}
    if len(lines) == 1:
        return "facts identical on every run: yes"
    out = ["facts identical on every run: NO"]
    for side in ("parent", "change"):
        for line, runs in sorted(facts[side].items()):
            out.append(f"  {side} ({runs} run{'s' if runs != 1 else ''}): "
                       f"{line}")
    parsed = [fact_fields(line) for line in lines]
    keys = list(dict.fromkeys(k for p in parsed for k in p))
    differing = [k for k in keys if len({p.get(k) for p in parsed}) > 1]
    out.append("  fields that differ: " + (", ".join(differing) or "none "
                                           "(the lines differ in layout)"))
    return "\n".join(out)


def better(metric, change, parent):
    if metric["better"] == "lower":
        return change < parent
    return change > parent


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_dir")
    ap.add_argument("change_dir")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=30.0)
    args = ap.parse_args()

    with open(os.path.join(args.parent_dir, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]

    sides = {"parent": args.parent_dir, "change": args.change_dir}
    reports = {"parent": [], "change": []}
    facts = {"parent": collections.Counter(),
             "change": collections.Counter()}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            try:
                report, fact_line = run_once(sides[side], args)
            except (RuntimeError, ValueError) as e:
                print(f"perfbench_ab: {e}", file=sys.stderr)
                return 2
            reports[side].append(report)
            facts[side][fact_line] += 1
            values = " ".join(
                f"{m['name']}={report['metrics'][m['name']]['value']:.6g}"
                for m in metrics)
            print(f"pair {i + 1} {side}: correct={report['correct']} "
                  f"failed={report['failed']}/{report['attempted']} "
                  f"{values}", flush=True)

    print(f"\nworkload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} pairs={args.pairs}")
    for m in metrics:
        name = m["name"]
        par = [r["metrics"][name]["value"] for r in reports["parent"]]
        chg = [r["metrics"][name]["value"] for r in reports["change"]]
        p25, pmed, p75 = quartiles(par)
        c25, cmed, c75 = quartiles(chg)
        wins = sum(better(m, c, p) for p, c in zip(par, chg))
        gain = (wins * 10 >= 9 * len(par) and better(m, cmed, pmed)
                and abs(cmed - pmed) > p75 - p25)
        worse = better(m, pmed, cmed) and abs(cmed - pmed) > m["bound"] * abs(
            pmed)
        print(f"{name} [{m['unit']}, {m['better']} is better, bound "
              f"{m['bound']:g}]: parent median {pmed:.6g} "
              f"(IQR {p25:.6g}-{p75:.6g}), change median {cmed:.6g} "
              f"(IQR {c25:.6g}-{c75:.6g}); change won {wins}/{len(par)}; "
              f"gain rule {'holds' if gain else 'does not hold'}; "
              f"{'WORSE than bound' if worse else 'within bound'}")
    print(facts_report(facts))
    for side in ("parent", "change"):
        failed = sum(r["failed"] for r in reports[side])
        attempted = sum(r["attempted"] for r in reports[side])
        print(f"{side}: failed operations {failed}/{attempted}")

    incorrect = [side for side in ("parent", "change")
                 if any(not r["correct"] for r in reports[side])]
    if incorrect:
        print(f"perfbench_ab: runs reported correct=false on "
              f"{', '.join(incorrect)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
