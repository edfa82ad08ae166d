#!/usr/bin/env python3
"""Weyl-chamber trace of the steering-operator family.

Writes the canonical coordinates c(U(J)) over a coupling grid together with
the CNOT/CPHASE landmark, showing that the steering line [J, J, 0] never
meets the CNOT class.
"""

import argparse
import math
from pathlib import Path

import numpy as np

from qsteer.cli import write_csv
from qsteer.geometry import CNOT_GATE, locally_equivalent, weyl_coordinates
from qsteer.states import QubitTarget
from qsteer.steering import TargetSpec, make_steering_operator


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--points", type=int, default=50)
    ap.add_argument("--theta", type=float, default=math.pi / 2)
    ap.add_argument("--phi", type=float, default=0.0)
    ap.add_argument("--out", default="results/weyl_line.csv")
    args = ap.parse_args()

    target = QubitTarget(args.theta, args.phi)
    rows = []
    for coupling in np.linspace(0.01, math.pi / 2, args.points):
        u = make_steering_operator(TargetSpec(target, float(coupling))).unitary
        c = weyl_coordinates(u)
        rows.append(
            [float(coupling), float(c[0]), float(c[1]), float(c[2]),
             int(locally_equivalent(u, CNOT_GATE))]
        )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_csv(out, ["J", "c1", "c2", "c3", "cnot_equivalent"], rows)

    c_cnot = weyl_coordinates(CNOT_GATE)
    print(f"CNOT sits at ({c_cnot[0]:.6f}, {c_cnot[1]:.6f}, {c_cnot[2]:.6f})")
    print(f"steering line spans [J, J, 0] for J in (0, pi/2]; wrote {out}")


if __name__ == "__main__":
    main()
