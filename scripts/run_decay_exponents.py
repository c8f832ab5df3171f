#!/usr/bin/env python3
"""Reproduce the optimal polynomial energy-decay exponents.

Runs the low-band exponent runs for p = 0, 1, 2 on the reference medium and
the high-band run for m = 2 on the reference, critical and double-pole media
of ``configs/``, and prints each reported exponent (-t E'/E at t_max, less the
datum's Sobolev slack) against the predicted one (p + 3/2, and m or m/2).  The double-pole medium is weakly dissipative and
non-critical: its high-band run measures the slow branch at the undamped pole.
"""

import argparse
import time
from pathlib import Path

from lorentzmodes import energy as en
from lorentzmodes.cli import load_medium_config

CONFIGS = Path(__file__).resolve().parent / "configs"


def main():
    argparse.ArgumentParser(description=__doc__).parse_args()

    reference, _ = load_medium_config(CONFIGS / "reference.cfg")
    critical, _ = load_medium_config(CONFIGS / "critical.cfg")
    double_pole, _ = load_medium_config(CONFIGS / "double_pole.cfg")
    rows = []

    for p in (0.0, 1.0, 2.0):
        t0 = time.monotonic()
        rep = en.verify_gamma_lf(reference, p)
        rows.append((f"reference lf p={p:g}", rep.target, rep.fitted, time.monotonic() - t0))

    for name, medium in (
        ("reference", reference), ("critical", critical), ("double_pole", double_pole)
    ):
        t0 = time.monotonic()
        rep = en.verify_gamma_hf(medium, 2.0)
        rows.append((f"{name} hf m=2", rep.target, rep.fitted, time.monotonic() - t0))

    print(f"{'experiment':<24}{'target':>8}{'fitted':>9}{'seconds':>9}")
    for name, target, fitted, seconds in rows:
        print(f"{name:<24}{target:>8.3f}{fitted:>9.4f}{seconds:>9.1f}")


if __name__ == "__main__":
    main()
