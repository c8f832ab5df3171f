#!/usr/bin/env python3
"""Per-layer, per-wavenumber timings of the single-k modal layer.

Times one call of each layer in thread CPU time on one BLAS thread, at
N = 6 (the reference medium) and N = 16 (4 electric, 3 magnetic
oscillators):

- ``assembly``: ``build_perp_operator``;
- ``dispersion``: ``solve_dispersion`` at a scalar k;
- ``eigen``: ``op.eigen`` on a fresh operator;
- ``propagate``: ``propagate`` on 201 time samples, decomposition built;
- ``resolvent``: guarded ``resolvent_formula`` at one upper-half-plane point;
- ``contour``: ``projector_contour`` for one dispersion root;
- ``chain``: the sequence of one ``modes`` operation of the benchmark at one k:
  ``build_perp_operator``, ``op.eigen``, the guarded resolvent and the
  contour projector;
- ``track``: ``track_branches``, ``classify_branches`` and ``diagnose_bands``
  on the medium's default grid, one ``atlas`` operation of the benchmark;
- ``exponent``: one ``verify_gamma_lf(medium, 0)`` run, its band edge from
  ``medium.diagnosed_bands``, one ``exponents`` operation of the benchmark.

Every single-k call gets a wavenumber of its own, so work memoised per
(medium, k) is paid by each call: the untimed preparation of ``resolvent`` and
``contour`` takes its point from ``solve_dispersion``, which shares nothing
memoised with them.  ``track`` memoises nothing per grid and ``exponent``
nothing per run (its preparation tracks the bands, once per medium); their
figures are per grid and per run, not per wavenumber.  A round makes CALLS
calls of every layer in turn at fixed log-spaced wavenumbers (each nudged by
1e-9 relative per call, which changes no outcome), in a fresh process that
first makes one untimed round.
A layer's figure is the best of ROUNDS rounds, in microseconds per call.
With ``--against``, each round times both sources, one process after the
other and first one then the other first, so a drift in the machine's speed
lands on both alike; each layer's ratio is the median over the rounds of the
``--src`` time over the ``--against`` time, recorded with the interquartile
range of the per-round ratios and read against the ratio of ``dispersion``,
the control whose code both sides usually share.  A ratio whose quartiles
contain 1 is no effect.  Runs of one source against itself (A/A) read medians
from 0.89 to 1.12, and one layer's quartiles there excluded 1 (N = 16
assembly, 15 us per call: [0.84, 0.97]), so a ratio reads as an effect only
well outside that spread.  The record,
with N, the core count, the numpy/scipy versions and the fixed malloc settings
of the timed processes, is merged into BENCH_layers.json under ``--label``:

    python scripts/bench_layers.py --label change
    python scripts/bench_layers.py --label "change vs parent" --against /path/to/parent/src
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# a fixed glibc heap policy, inherited by the spawned children: with the dynamic mmap
# threshold and heap trimming, whether a layer's large arrays are mapped afresh (and
# page-fault) depends on earlier allocations, which moved N = 16 times by 15-26 %
MALLOC = {"MALLOC_MMAP_THRESHOLD_": "4194304", "MALLOC_TRIM_THRESHOLD_": "67108864"}
os.environ.update(MALLOC)

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from concurrent.futures import ProcessPoolExecutor  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_layers.json"
CALLS = 20
ROUNDS = 15

MEDIA = {
    "N=6": (1.0, 1.0, [(1.0, 1.0, 0.1)], [(1.0, 2.0, 0.2)]),
    "N=16": (
        1.0,
        1.0,
        [(1, 0.8, 0.1), (0.7, 1.7, 0.15), (0.5, 2.9, 0.2), (0.4, 4.3, 0.25)],
        [(0.8, 1.3, 0.12), (0.6, 2.3, 0.18), (0.4, 3.6, 0.22)],
    ),
}
T_GRID = np.linspace(0.0, 50.0, 201)


def layers(lm, medium):
    """(name, prepare(k) -> args, call(*args)) per layer; prepare is not timed."""
    from lorentzmodes import evolution, operators

    rng = np.random.default_rng(0)
    u0 = rng.standard_normal(2 * medium.state_blocks) + 1j * rng.standard_normal(
        2 * medium.state_blocks
    )

    def with_eigen(k):
        op = operators.build_perp_operator(medium, k)
        op.eigen  # the decomposition is built before the timed call
        return op, u0 / op.norm(u0)

    def upper_point(k):
        roots = lm.solve_dispersion(medium, k)
        return medium, k, (0.3 + 0.7j) * (1.0 + np.max(np.abs(roots)))

    def one_root(k):
        roots = lm.solve_dispersion(medium, k)
        return medium, k, roots[len(roots) // 2]

    def chain(k):
        op = operators.build_perp_operator(medium, k)
        vals = op.eigen.eigenvalues
        operators.resolvent_formula(medium, k, (0.3 + 0.7j) * (1.0 + np.max(np.abs(vals))))
        operators.projector_contour(medium, k, vals[len(vals) // 2])

    grid = lm.default_k_grid(medium)
    table = medium.asymptotic_coefficients()

    def track():
        branches = lm.classify_branches(lm.track_branches(medium, grid), medium)
        lm.diagnose_bands(branches, table)

    return [
        ("assembly", lambda k: (medium, k), operators.build_perp_operator),
        ("dispersion", lambda k: (medium, k), lm.solve_dispersion),
        ("eigen", lambda k: (operators.build_perp_operator(medium, k),), lambda op: op.eigen),
        ("propagate", with_eigen, lambda op, u: evolution.propagate(op, u, T_GRID)),
        ("resolvent", upper_point, operators.resolvent_formula),
        ("contour", one_root, operators.projector_contour),
        ("chain", lambda k: (k,), chain),
        ("track", lambda k: (), track),
        ("exponent", lambda k: (medium, 0.0, medium.diagnosed_bands[0]), lm.verify_gamma_lf),
    ]


def time_layers(lm, medium) -> dict:
    """Microseconds per call of each layer in one round, after one untimed round."""
    ks = np.geomspace(0.05, 20.0, CALLS)
    nudge = itertools.count(1)
    todo = layers(lm, medium)
    for _ in range(2):  # the first round warms up and is dropped
        spent = {}
        for name, prepare, call in todo:
            spent[name] = 0
            for k in ks:
                args = prepare(float(k) * (1.0 + 1e-9 * next(nudge)))
                t0 = time.thread_time_ns()
                call(*args)
                spent[name] += time.thread_time_ns() - t0
    return {name: ns / CALLS / 1e3 for name, ns in spent.items()}


def one_round(src: str) -> dict:
    """{medium size: layer timings} for one round on the lorentzmodes in src."""
    sys.path.insert(0, src)
    import lorentzmodes as lm

    return {size: time_layers(lm, lm.new_medium(*data)) for size, data in MEDIA.items()}


def in_fresh_process(src: str) -> dict:
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=1, mp_context=spawn) as pool:
        return pool.submit(one_round, src).result()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True, help="key of this record in the JSON file")
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory holding lorentzmodes")
    parser.add_argument("--against", help="directory of another lorentzmodes, timed alongside")
    args = parser.parse_args()
    sources = [args.src] + ([args.against] if args.against else [])

    rounds = []  # per round, per source: {size: {layer: us per call}}
    for r in range(ROUNDS):
        order = range(len(sources)) if r % 2 == 0 else reversed(range(len(sources)))
        timed = {i: in_fresh_process(sources[i]) for i in order}
        rounds.append([timed[i] for i in range(len(sources))])

    def best(side):
        return {
            size: {"N": 2 + 2 * (len(data[2]) + len(data[3])),
                   **{layer: round(min(rnd[side][size][layer] for rnd in rounds), 1)
                      for layer in rounds[0][side][size]}}
            for size, data in MEDIA.items()
        }

    import scipy

    record = {
        "unit": f"us of thread CPU time per call, best of {ROUNDS} rounds of {CALLS} calls",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "malloc": MALLOC,
        "media": best(0),
    }
    print(json.dumps(record["media"]), flush=True)
    if args.against:
        record["against"] = best(1)

        def spread(size, layer):
            per_round = [rnd[0][size][layer] / rnd[1][size][layer] for rnd in rounds]
            q1, median, q3 = (round(float(q), 3) for q in np.percentile(per_round, [25, 50, 75]))
            return {"median": median, "iqr": [q1, q3]}

        record["ratio"] = {
            size: {layer: spread(size, layer) for layer in layer_times}
            for size, layer_times in rounds[0][0].items()
        }
        for size, ratio in record["ratio"].items():
            print(size, "; ".join(
                f"{'control ' * (layer == 'dispersion')}{layer} {r['median']:.3f} "
                f"[{r['iqr'][0]:.3f}, {r['iqr'][1]:.3f}]" for layer, r in ratio.items()
            ), flush=True)

    runs = json.loads(OUT.read_text()) if OUT.exists() else {}
    runs[args.label] = record
    OUT.write_text(json.dumps(runs, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
