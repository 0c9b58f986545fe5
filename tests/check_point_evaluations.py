#!/usr/bin/env python3
"""Check that a ptatin_driver run evaluated each nonlinear state once.

Usage: check_point_evaluations.py SOLVER_REPORT_JSON

Reads the `ptatin.solver_report/1` file that `ptatin_driver --telemetry DIR`
writes to DIR/solver_report.json. Inside a time step the flow laws are
evaluated at the material points once per new (u, p): once for the pre-solve
and once per line-search trial. The first residual, every Newton-step
refresh and the plastic-strain stage reuse the evaluation of the state they
are at. The nonlinear residual F(u, p) is evaluated once for the first state
and once per line-search trial: a Newton step builds its right-hand side
from the residual of the state it starts at. So the counters
`mpm.point_evaluations` and `nonlin.residual_evaluations` must each equal
the sum over the Newton records of

    1 + sum over step_lengths of min(log2(1/lambda) + 1, LINE_SEARCH_MAX + 1)

where a step length lambda = 2^-k took k + 1 trials, unless the search ran
out. Exits 1 on a mismatch.
"""
import json
import math
import sys

# NonlinearOptions::line_search_max (src/nonlin/newton.hpp); ptatin_driver
# has no flag that changes it.
LINE_SEARCH_MAX = 8


def trials(step_length):
    return min(round(math.log2(1 / step_length)) + 1, LINE_SEARCH_MAX + 1)


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    with open(sys.argv[1]) as f:
        report = json.load(f)

    records = report["newton"]
    expected = sum(1 + sum(trials(lam) for lam in rec["step_lengths"])
                   for rec in records)
    counters = report["metrics"]["counters"]
    print(f"{len(records)} nonlinear solves, "
          f"{sum(len(r['step_lengths']) for r in records)} Newton steps, "
          f"expected {expected} evaluations of each kind")
    if not records:
        print("FAIL: no Newton record in the report")
        sys.exit(1)
    failed = False
    for name in ("mpm.point_evaluations", "nonlin.residual_evaluations"):
        counted = counters.get(name, 0)
        print(f"  {name} = {counted}")
        if counted != expected:
            print(f"FAIL: {name} = {counted} != {expected}")
            failed = True
    if failed:
        sys.exit(1)


if __name__ == "__main__":
    main()
