"""Pin BLAS to one thread before numpy loads, as perfbench/run.py and scripts/write_results.py do.

With two OpenBLAS threads the first LAPACK call of a process sometimes stalls
for about a second, which would land in the timed acceptance fixture.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
