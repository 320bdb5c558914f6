"""Rerun acceptance criteria 5 and 9 under ulp-scale weight nudges.

Usage: ``python tests/sensitivity.py``

Each run scales every initial weight by (1 + k·2⁻⁵²), for k = 0 to
K - 1, and runs the criterion's own recipe from
``tests/test_acceptance.py`` (``memorize`` and ``criterion5``, and
``criterion9``) with its seeds, tolerances and world sizes. At k = 0 the
weights are the scorecard's, so that run prints the scorecard's numbers.
A line per run is printed as it ends; then, per criterion, the pass
count and the median and range of each compared number. One scorecard
run is one draw from this spread, and a change that regroups a float sum
draws again. The script takes about 15 minutes of one core, so pytest
does not collect it.
"""

from __future__ import annotations

import os
import sys

# one BLAS thread, so summation order cannot depend on the host
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from test_acceptance import criterion5, criterion9, memorize  # noqa: E402

K = 10   # nudges k = 0 .. K - 1

CRITERIA = {5: lambda k: criterion5(memorize(k)), 9: criterion9}


def main() -> int:
    for number, run in CRITERIA.items():
        results = []
        for k in range(K):
            ok, numbers = run(k)
            results.append((ok, numbers))
            shown = ", ".join(f"{name} {value:.4g}" for name, value in numbers.items())
            print(f"criterion {number} k={k}: {'PASS' if ok else 'FAIL'} — {shown}", flush=True)
        print(f"criterion {number}: {sum(ok for ok, _ in results)} of {K} pass")
        for name in results[0][1]:
            values = [numbers[name] for _, numbers in results]
            print(f"  {name}: median {np.median(values):.4g}, "
                  f"range {min(values):.4g}-{max(values):.4g}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
