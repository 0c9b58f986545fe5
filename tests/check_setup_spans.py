#!/usr/bin/env python3
"""Check the preconditioner-setup spans of a ptatin_driver trace.

Usage: check_setup_spans.py TRACE_JSON [MIN_COVERAGE]

Reads the Chrome trace that `ptatin_driver --telemetry DIR` writes to
DIR/trace.json and asserts that

  - every NewtonStep span contains a PCSetup(Stokes) span, and
  - the direct children of every PCSetup(Stokes) span cover at least
    MIN_COVERAGE (default 0.9) of its duration.

Spans nest by time on one thread; the direct children of a span are the
spans it contains that no other contained span contains. Exits 1 on a
failed check.
"""
import json
import sys

EPS_US = 1e-3  # timestamps are microseconds with sub-microsecond digits


def contains(outer, inner):
    return (outer["ts"] <= inner["ts"] + EPS_US and
            inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"] + EPS_US)


def build_tree(events):
    """Give every event a `children` list; return the events with no parent."""
    roots = []
    by_tid = {}
    for ev in events:
        ev["children"] = []
        by_tid.setdefault(ev["tid"], []).append(ev)
    for evs in by_tid.values():
        evs.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []
        for ev in evs:
            while stack and not contains(stack[-1], ev):
                stack.pop()
            (stack[-1]["children"] if stack else roots).append(ev)
            stack.append(ev)
    return roots


def descendants(ev):
    for child in ev["children"]:
        yield child
        yield from descendants(child)


def main():
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    min_coverage = float(sys.argv[2]) if len(sys.argv) == 3 else 0.9
    with open(sys.argv[1]) as f:
        events = [e for e in json.load(f)["traceEvents"] if e.get("ph") == "X"]
    build_tree(events)

    failures = []
    steps = [e for e in events if e["name"] == "NewtonStep"]
    if not steps:
        failures.append("no NewtonStep span in the trace")
    for i, step in enumerate(steps):
        if not any(d["name"] == "PCSetup(Stokes)" for d in descendants(step)):
            failures.append(f"NewtonStep {i} has no PCSetup(Stokes) span")

    setups = [e for e in events if e["name"] == "PCSetup(Stokes)"]
    for i, setup in enumerate(setups):
        covered = sum(c["dur"] for c in setup["children"])
        coverage = covered / setup["dur"] if setup["dur"] > 0 else 1.0
        names = sorted({c["name"] for c in setup["children"]})
        print(f"PCSetup(Stokes) {i}: {setup['dur'] / 1e3:.2f} ms, direct "
              f"children cover {coverage:.1%} ({', '.join(names)})")
        if coverage < min_coverage:
            failures.append(f"PCSetup(Stokes) {i}: children cover "
                            f"{coverage:.1%} < {min_coverage:.1%}")

    print(f"{len(steps)} NewtonStep spans, {len(setups)} PCSetup(Stokes) spans")
    for msg in failures:
        print("FAIL:", msg)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
