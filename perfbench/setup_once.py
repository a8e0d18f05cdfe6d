"""One set-up measurement in a fresh interpreter.

Usage: python3 setup_once.py <src dir> <grid size>

Times `import exprk.cli` (which imports numpy), the testbed operator build
and the first LAPACK call, and prints the seconds as JSON. run.py starts
this several times, with BLAS threads already pinned in the environment,
and reports the median as setup_s.
"""

import json
import sys
import time


def main(src: str, n: int) -> None:
    sys.path.insert(0, src)
    start = time.perf_counter()
    import exprk.cli  # noqa: F401 - the import is what is timed
    from exprk import discretize
    import numpy as np
    ops = discretize.build_operators(discretize.build_grid(n), 0.2)
    np.linalg.eigh(ops.A)
    print(json.dumps({"setup_s": time.perf_counter() - start}))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
