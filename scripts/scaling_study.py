#!/usr/bin/env python3
"""Register-size dependence of the small-noise variance scaling.

For the rapidly entangling (CNOT-cascade) family the deep-limit variance
under GHZ-replacement noise approaches a quadratic law in the noise
strength p as the register grows.  At small n the fitted log-log slope
falls visibly short of 2 — this script tabulates that drift.  It comes from
the absorbed term V_inf p/(2-p) of the noiseless deep limit, which is linear
at small p and fades roughly as 2^-n; the 6-qubit acceptance check subtracts
it and fits the remainder, while the 10-qubit one fits the raw value.

Both families take the matrix-product-operator path of ``ltm_exact``, so
the slowly entangling (CRX-cascade) family's linear-law deviation column is
filled at every n, like the rapid family's slope.
"""

import argparse
import csv
import sys

import numpy as np

from ltmlab import (
    SubsystemPartition,
    cnot_double_cascade,
    crx_cascade,
    ghz_locality,
    ltm_exact,
    noise_series,
    weighted_dot,
    zz_chain_locality,
)


def normalized_deep(circuit, n: int, grid: np.ndarray) -> np.ndarray:
    """Deep-limit variance over the grid, divided by (l_sigma, l_H): one series."""
    transfer = ltm_exact(circuit, SubsystemPartition.qubits(n))
    l_sigma = ghz_locality(n)
    l_h = zz_chain_locality(n, 9.0 / n)
    series = noise_series(transfer, l_sigma, l_sigma, l_h, float(grid.min()))
    return np.array([series.deep(p) for p in grid]) / weighted_dot(l_sigma, l_h)


def rapid_slope(n: int, grid: np.ndarray) -> float:
    values = normalized_deep(cnot_double_cascade(n), n, grid)
    return float(np.polyfit(np.log(grid), np.log(values), 1)[0])


def slow_linear_deviation(n: int, grid: np.ndarray) -> float:
    """Max relative deviation of the slow family from p / (2 - p)."""
    predicted = grid / (2.0 - grid)
    values = normalized_deep(crx_cascade(n), n, grid)
    return float(np.max(np.abs(values - predicted) / predicted))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-min", type=int, default=3)
    parser.add_argument("--n-max", type=int, default=10)
    parser.add_argument("--csv", default=None, help="also write the table here")
    args = parser.parse_args()

    rapid_grid = np.linspace(0.05, 0.5, 10)
    slow_grid = np.linspace(0.2, 0.8, 13)
    rows = []
    print(f"{'n':>3}  {'rapid log-log slope':>20}  {'slow max rel dev':>17}")
    for n in range(args.n_min, args.n_max + 1):
        slope = rapid_slope(n, rapid_grid)
        dev = slow_linear_deviation(n, slow_grid)
        print(f"{n:>3}  {slope:>20.4f}  {dev:>17.4f}")
        rows.append({"n": n, "rapid_slope": slope, "slow_max_rel_dev": dev})

    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=["n", "rapid_slope", "slow_max_rel_dev"])
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {args.csv}", file=sys.stderr)


if __name__ == "__main__":
    main()
