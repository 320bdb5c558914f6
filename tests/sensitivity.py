"""Rerun acceptance criteria 5 to 9 under ulp-scale weight nudges.

Usage: ``python tests/sensitivity.py``

Each run scales every initial weight by (1 + k·2⁻⁵²), for k = 0 to
K - 1, and runs the criterion's own recipe from
``tests/test_acceptance.py`` with its seeds, tolerances and world sizes:
one ``memorize`` run per k serves ``criterion5`` and ``criterion6``,
and ``criterion7``, ``criterion8`` and ``criterion9`` train their own.
At k = 0 the weights are the scorecard's, so that run prints the
scorecard's numbers. A line per criterion and run is printed as it ends;
then, per criterion, the pass count and the median and range of each
compared number. One scorecard run is one draw from this spread, and a
change that regroups a float sum draws again. The script takes about 25
minutes of one core, so pytest does not collect it.
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

from test_acceptance import (criterion5, criterion6, criterion7, criterion8,  # noqa: E402
                             criterion9, memorize)

K = 10   # nudges k = 0 .. K - 1


def memorized(k):
    run = memorize(k)
    return criterion5(run), criterion6(run)


# the criteria each recipe checks, and the recipe: k -> one (passed, numbers) per criterion
RECIPES = [((5, 6), memorized), ((7,), lambda k: (criterion7(k),)),
           ((8,), lambda k: (criterion8(k),)), ((9,), lambda k: (criterion9(k),))]


def main() -> int:
    for numbers, recipe in RECIPES:
        results = {number: [] for number in numbers}
        for k in range(K):
            for number, (ok, compared) in zip(numbers, recipe(k)):
                results[number].append((ok, compared))
                shown = ", ".join(f"{name} {value:.4g}" for name, value in compared.items())
                print(f"criterion {number} k={k}: {'PASS' if ok else 'FAIL'} — {shown}",
                      flush=True)
        for number, runs in results.items():
            print(f"criterion {number}: {sum(ok for ok, _ in runs)} of {K} pass")
            for name in runs[0][1]:
                values = [compared[name] for _, compared in runs]
                print(f"  {name}: median {np.median(values):.4g}, "
                      f"range {min(values):.4g}-{max(values):.4g}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
