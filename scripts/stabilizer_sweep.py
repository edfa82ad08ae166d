#!/usr/bin/env python3
"""Fidelity-versus-cycles grid for the six stabilizer targets.

Sweeps coupling strengths, runs exact blind steering from the maximally
mixed state, and writes the per-target and stabilizer-averaged fidelities.
Optionally applies a depolarizing + damping noise model to show the
noise-limited plateau.
"""

import argparse
from pathlib import Path

from qsteer.cli import write_sweep
from qsteer.protocol import NoiseConfig, sweep
from qsteer.states import stabilizer_catalog


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--js", default="0.3926990816987241,0.7853981633974483,1.5707963267948966",
                    help="comma-separated couplings (default pi/8, pi/4, pi/2)")
    ap.add_argument("--steps", type=int, default=30)
    ap.add_argument("--depolarizing", type=float, default=0.0)
    ap.add_argument("--damping", type=float, default=0.0)
    ap.add_argument("--out", default="results/stabilizer_sweep.csv")
    args = ap.parse_args()

    couplings = [float(v) for v in args.js.split(",")]
    noise = NoiseConfig(
        depolarizing_p=args.depolarizing, amplitude_damping_gamma=args.damping
    )
    targets = [(e.label, e.target) for e in stabilizer_catalog()]
    rows = sweep(targets, couplings, args.steps, noise)

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_sweep(rows, out)
    finals = {}
    for r in rows:
        if r.step == args.steps:
            finals[r.coupling] = r.stabilizer_average
    for coupling in couplings:
        print(f"J={coupling:.4f}: stabilizer-average fidelity after {args.steps} cycles "
              f"= {finals[coupling]:.6f}")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
