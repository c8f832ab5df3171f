#!/usr/bin/env python3
"""Track, label, and export the dispersion branches of the three example media.

Writes one branches CSV per medium into the output directory and prints the
diagnosed asymptotic band edges together with every branch's limit labels.
"""

import argparse
import csv
from pathlib import Path

from lorentzmodes import dispersion as dsp
from lorentzmodes.cli import load_medium_config

CONFIGS = Path(__file__).resolve().parent / "configs"
MEDIA = ("reference", "critical", "double_pole")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="atlas", help="output directory")
    parser.add_argument("--points-per-decade", type=int, default=100)
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    for name in MEDIA:
        medium, _ = load_medium_config(CONFIGS / f"{name}.cfg")
        grid = dsp.default_k_grid(medium, args.points_per_decade)
        branches = dsp.classify_branches(dsp.track_branches(medium, grid), medium)
        k_minus, k_plus = dsp.diagnose_bands(
            branches, medium.asymptotic_coefficients()
        )
        print(f"{name}: {medium.check_assumptions().summary()}, "
              f"{len(branches)} branches, k_minus={k_minus:g}, k_plus={k_plus:g}")
        for b in branches:
            print(f"    {b.label_text()}")
        path = out / f"{name}_branches.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("k", "branch_label", "re_omega", "im_omega"))
            for b in branches:
                label = b.label_text()
                for k, w in zip(b.k, b.omega):
                    writer.writerow((f"{k:.17g}", label, f"{w.real:.17g}", f"{w.imag:.17g}"))
        print(f"    -> {path}")


if __name__ == "__main__":
    main()
