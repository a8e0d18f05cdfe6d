#!/usr/bin/env python3
"""Write perfbench/expected.json: the outputs the benchmark checks against.

Usage (from the repository root, on the commit whose numbers are the
reference): python3 perfbench/record_expected.py

Re-record only when a change is meant to move the numbers beyond the
tolerances in workloads.py, and say so in the change.
"""

import json
import sys

import run  # pins BLAS threads before numpy is imported

sys.path.insert(0, str(run.SRC))

import workloads as wl  # noqa: E402


def recorded(kind, result):
    if kind == "probe":
        return {"bounded": result.bounded, "max": result.max_value}
    report, _ = result
    return {"errors": [[r.err_l1, r.err_l2, r.err_linf] for r in report.rows],
            "orders": dict(report.fitted_order)}


def main() -> int:
    expected = {w: {name: recorded(kind, op())
                    for name, _, op, kind in wl.operations(w, seed=0) if kind != "exit"}
                for w in run.WORKLOADS}
    (run.HERE / "expected.json").write_text(json.dumps(expected, indent=1) + "\n",
                                            encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
