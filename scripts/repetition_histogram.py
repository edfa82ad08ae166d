#!/usr/bin/env python3
"""Non-blind repetition histogram and CDF, with a geometric-law fit.

Runs many readout-conditioned trajectories that stop at the first recorded
"1", then compares the repetition histogram against the geometric
distribution implied by the per-cycle success probability p = sin^2(J) and
against the exact law of the stopping cycle (protocol.repetition_law).  Like
the frequency column, both pmfs and both predicted means are conditioned on a
flag within --max-steps N: trajectories that never flag are counted apart.
The truncated geometric law has pmf p q^(n-1) / (1 - q^N) and mean
1/p - N q^N / (1 - q^N), with q = 1 - p.
"""

import argparse
import math
from pathlib import Path

import numpy as np

from qsteer.cli import write_csv
from qsteer.protocol import repetition_law, repetition_stats, run_nonblind_batch
from qsteer.states import DensityState, QubitTarget
from qsteer.steering import TargetSpec, make_steering_operator


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--j", type=float, default=math.pi / 4)
    ap.add_argument("--trajectories", type=int, default=100_000)
    ap.add_argument("--max-steps", type=int, default=80)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="results/repetition_histogram.csv")
    args = ap.parse_args()

    op = make_steering_operator(TargetSpec(QubitTarget(math.pi / 2, 0.0), args.j, "+"))
    rho0 = DensityState(matrix=np.eye(2, dtype=complex) / 2, dims=(2,))
    batch = run_nonblind_batch(
        rho0, op, args.max_steps, args.trajectories, seed=args.seed
    )
    stats = repetition_stats(batch)
    exact_pmf, _ = repetition_law(rho0, op, args.max_steps)
    exact_pmf = exact_pmf / exact_pmf.sum()
    exact_mean = float(np.arange(1, args.max_steps + 1) @ exact_pmf)

    p = math.sin(args.j) ** 2
    q, n_max = 1.0 - p, args.max_steps
    flagged = 1.0 - q**n_max  # probability of a flag within --max-steps
    geometric_mean = 1.0 / p - n_max * q**n_max / flagged
    total = sum(stats.counts.values())
    rows = []
    cdf_map = dict(stats.cdf)
    for value in sorted(stats.counts):
        freq = stats.counts[value] / total
        rows.append(
            [
                value,
                stats.counts[value],
                freq,
                cdf_map[value],
                p * q ** (value - 1) / flagged,
                exact_pmf[value - 1],
            ]
        )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_csv(
        out, ["repetitions", "count", "frequency", "cdf", "geometric_pmf", "exact_pmf"], rows
    )

    print(f"J={args.j:.4f}: mean repetitions {stats.mean_repetitions:.3f} "
          f"(geometric prediction {geometric_mean:.3f}, exact law {exact_mean:.3f}), "
          f"{stats.n_failures}/{stats.n_records} trajectories never flagged")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
