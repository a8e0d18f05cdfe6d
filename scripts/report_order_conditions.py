#!/usr/bin/env python3
"""Print the stiff order-condition residual tables for all built-in schemes."""

import sys

from exprk.orderconditions import first_failure, full_report
from exprk.tableaus import exponential_euler, second_order, third_order


def main() -> int:
    ok = True
    for tab in (exponential_euler(), second_order(0.5), third_order()):
        report = full_report(tab)
        print(f"== {tab.name} ==")
        print(report.to_table())
        if first_failure(tab.claims, report) is not None:
            print(f"{tab.name}: claimed conditions NOT satisfied")
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
