#!/usr/bin/env python3
"""Compare two BENCH_perf_core.json files (baseline vs candidate).

Two modes, matching the two kinds of figures perf_core emits:

* --events-only (the ctest `perf_compare_events` gate): compares only the
  deterministic simulation facts -- "events", "generated", "committed",
  "messages" and the full "counters" catalog -- for every (system, clients)
  point present in BOTH files. These are machine-independent: a mismatch
  means the simulation's behavior changed (which must show up here and in
  the golden digests together), never that the machine was slow.

* full mode (the CI perf-smoke job): additionally gates wall-clock
  throughput -- a candidate point whose events/sec drops more than
  --max-regress (default 0.30, i.e. 30%) below the baseline fails --
  and prints two informational tables: per-section wall-time deltas
  (where attributed time moved) and per-point peak_rss_kb (where memory
  moved). Only meaningful when baseline and candidate ran on comparable
  hardware (in CI: the same runner class).

Point-set rules: candidate points must be a subset of the baseline's
(a --quick candidate against a full baseline is the normal shape); a
candidate-only point is a gate hole and a structural error.

Exit status: 0 = comparable and within bounds, 1 = regression/mismatch,
2 = structural problem (unreadable file, schema violation, mismatched
point sets).

Stdlib only; no third-party imports.
"""

import argparse
import json
import sys

SCHEMA_VERSION = 1


def die(msg):
    """Structural problem: print a one-line diagnosis and exit 2."""
    print(f"perf_compare: {msg}", file=sys.stderr)
    sys.exit(2)
REQUIRED_POINT_KEYS = (
    "system",
    "clients",
    "wall_s",
    "events",
    "events_per_sec",
    "generated",
    "committed",
    "messages",
    "counters",
)
EXACT_KEYS = ("events", "generated", "committed", "messages")


def load(path):
    """Loads and schema-checks one BENCH_perf_core.json; exits 2 on error."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        die(f"cannot read {path}: {e}")
    if not isinstance(doc, dict):
        die(f"{path}: top level is {type(doc).__name__}, expected an object")
    if doc.get("bench") != "perf_core":
        die(f"{path}: not a perf_core result (bench={doc.get('bench')!r})")
    if doc.get("schema_version") != SCHEMA_VERSION:
        die(f"{path}: schema_version {doc.get('schema_version')!r}, "
            f"expected {SCHEMA_VERSION} — baseline and harness disagree; "
            f"regenerate the older file with the current perf_core")
    points = doc.get("points")
    if not isinstance(points, list) or not points:
        die(f"{path}: no points")
    for p in points:
        if not isinstance(p, dict):
            die(f"{path}: point is {type(p).__name__}, expected an object")
        missing = [k for k in REQUIRED_POINT_KEYS if k not in p]
        if missing:
            sk = p.get("system"), p.get("clients")
            die(f"{path}: point {sk[0]}@{sk[1]} missing keys {missing}")
        if not isinstance(p["counters"], dict):
            die(f"{path}: point {p['system']}@{p['clients']}: 'counters' is "
                f"{type(p['counters']).__name__}, expected an object")
    return doc


def index(doc):
    return {(p["system"], p["clients"]): p for p in doc["points"]}


def compare_events(base, cand, shared):
    """Exact comparison of the deterministic fields; returns failure count."""
    failures = 0
    for key in shared:
        b, c = base[key], cand[key]
        label = f"{key[0]}@{key[1]}"
        for field in EXACT_KEYS:
            if b[field] != c[field]:
                print(f"FAIL {label}: {field} {b[field]} -> {c[field]} "
                      f"(deterministic field moved)")
                failures += 1
        bc, cc = b["counters"], c["counters"]
        for name in sorted(set(bc) | set(cc)):
            if bc.get(name) != cc.get(name):
                print(f"FAIL {label}: counter {name} "
                      f"{bc.get(name)} -> {cc.get(name)}")
                failures += 1
    return failures


def compare_sections(base, cand, shared):
    """Per-section wall-time deltas, summed over the shared points.

    Informational only (never fails): section times are machine-local, and
    nested sections double-count into their parents by design. The table
    shows where attributed wall time moved between baseline and candidate.
    """
    base_ns, cand_ns = {}, {}
    for key in shared:
        for name, s in base[key].get("sections", {}).items():
            base_ns[name] = base_ns.get(name, 0) + s.get("ns", 0)
        for name, s in cand[key].get("sections", {}).items():
            cand_ns[name] = cand_ns.get(name, 0) + s.get("ns", 0)
    names = sorted(set(base_ns) | set(cand_ns))
    if not names:
        return
    print(f"{'section':>16} {'base ms':>10} {'cand ms':>10} {'ratio':>7}")
    for name in names:
        b = base_ns.get(name, 0)
        c = cand_ns.get(name, 0)
        ratio = f"{c / b:7.2f}" if b else "    n/a"
        print(f"{name:>16} {b / 1e6:10.1f} {c / 1e6:10.1f} {ratio}")


def compare_rss(base, cand, shared):
    """Per-point peak RSS, baseline vs candidate.

    Informational only (never fails): RSS is machine-local. A point without
    a figure (0 or absent: the harness could not reset the high-water mark)
    prints n/a.
    """
    print(f"{'point':>10} {'base KiB':>10} {'cand KiB':>10} {'ratio':>7}")
    for key in sorted(shared):
        b = base[key].get("peak_rss_kb", 0)
        c = cand[key].get("peak_rss_kb", 0)
        ratio = f"{c / b:7.2f}" if b and c else "    n/a"
        print(f"{key[0] + '@' + str(key[1]):>10} {b:10} {c:10} {ratio}")


def compare_throughput(base, cand, shared, max_regress):
    """events/sec ratio gate; returns failure count."""
    failures = 0
    print(f"{'point':>10} {'base ev/s':>12} {'cand ev/s':>12} {'ratio':>7}")
    for key in sorted(shared):
        b, c = base[key], cand[key]
        label = f"{key[0]}@{key[1]}"
        base_eps = b["events_per_sec"]
        cand_eps = c["events_per_sec"]
        if base_eps <= 0:
            print(f"{label:>10} {base_eps:12.0f} {cand_eps:12.0f}    skip"
                  " (baseline has no throughput figure)")
            continue
        ratio = cand_eps / base_eps
        verdict = ""
        if ratio < 1.0 - max_regress:
            verdict = f"  FAIL (> {100 * max_regress:.0f}% slower)"
            failures += 1
        print(f"{label:>10} {base_eps:12.0f} {cand_eps:12.0f} {ratio:7.2f}"
              f"{verdict}")
    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline", help="committed BENCH_perf_core.json")
    ap.add_argument("candidate", help="freshly generated result")
    ap.add_argument("--events-only", action="store_true",
                    help="compare only deterministic simulation facts")
    ap.add_argument("--max-regress", type=float, default=0.30,
                    help="allowed events/sec drop as a fraction "
                         "(default 0.30)")
    args = ap.parse_args()

    base = index(load(args.baseline))
    cand = index(load(args.candidate))
    shared = sorted(set(base) & set(cand))
    if not shared:
        die("no (system, clients) points in common — baseline has "
            + ", ".join(f"{s}@{n}" for s, n in sorted(base)) + "; candidate "
            "has " + ", ".join(f"{s}@{n}" for s, n in sorted(cand)))
    # A candidate-only point is a gate hole: nothing pins it. (The reverse —
    # baseline-only points — is the normal --quick-vs-full shape.)
    cand_only = sorted(set(cand) - set(base))
    if cand_only:
        die("candidate has point(s) absent from the baseline: "
            + ", ".join(f"{s}@{n}" for s, n in cand_only)
            + " — refresh the committed baseline with a full-mode run")
    base_only = sorted(set(base) - set(cand))
    if base_only:
        print("note: baseline-only point(s) not compared: "
              + ", ".join(f"{s}@{n}" for s, n in base_only))
    print(f"comparing {len(shared)} shared point(s): "
          + ", ".join(f"{s}@{n}" for s, n in shared))

    failures = compare_events(base, cand, shared)
    if not args.events_only:
        failures += compare_throughput(base, cand, shared, args.max_regress)
        compare_sections(base, cand, shared)
        compare_rss(base, cand, shared)

    if failures:
        print(f"perf_compare: {failures} failure(s)")
        return 1
    print("perf_compare: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
