#!/usr/bin/env python3
"""Per-layer, per-wavenumber timings of the single-k modal layer.

Times one call of each layer in thread CPU time on one BLAS thread, at
N = 6 (the reference medium) and N = 16 (4 electric, 3 magnetic
oscillators):

- ``assembly``: ``build_perp_operator(medium, k).matrix``, the operator's matrix
  being built on first read;
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

After its timed rounds each process runs ``track`` once more, untimed, with
five library functions wrapped to count its work on one grid exactly:
``companion_rows`` (rows solved from their companion matrices),
``newton_kept_rows`` (guessed rows that kept their Newton roots),
``guessed_newton_steps`` (Newton steps summed over guessed rows),
``nearest_rows`` (step rows sent through the nearest-neighbour search) and
``compositions`` (safe steps whose order was composed with the running
permutation, ``order[i][perm]``).  It also runs ``exponent`` once more,
untimed, counting ``branch_rows`` (wavenumbers sent to
``energy.branch_eigenvalue``, the branch root solve) and ``trace_entries``
(entries of the closed-form traces exp(2 Im omega t), the ``np.exp`` results
of the ``energy`` module).  Counts do not depend on the machine, so every
round must read the same ones, and a per-layer gain is read from a count that
fell.
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
        ("assembly", lambda k: (medium, k), lambda m, k: operators.build_perp_operator(m, k).matrix),
        ("dispersion", lambda k: (medium, k), lm.solve_dispersion),
        ("eigen", lambda k: (operators.build_perp_operator(medium, k),), lambda op: op.eigen),
        ("propagate", with_eigen, lambda op, u: evolution.propagate(op, u, T_GRID)),
        ("resolvent", upper_point, operators.resolvent_formula),
        ("contour", one_root, operators.projector_contour),
        ("chain", lambda k: (k,), chain),
        ("track", lambda k: (), track),
        ("exponent", lambda k: (medium, 0.0, medium.diagnosed_bands[0]), lm.verify_gamma_lf),
    ]


class _CountedOrder(np.ndarray):
    """A step's order that counts each running permutation composed with it, order[i][perm]."""

    composed = 0

    def __getitem__(self, key):
        if isinstance(key, np.ndarray):
            _CountedOrder.composed += 1
        return super().__getitem__(key)


def track_counts(track) -> dict:
    """Exact work counts of one call of the track layer, from wrapped library functions."""
    from lorentzmodes import dispersion, polyroots

    counts = {"companion_rows": 0, "newton_kept_rows": 0, "guessed_newton_steps": 0,
              "nearest_rows": 0}
    originals = {(module, name): getattr(module, name) for module, name in (
        (polyroots, "_companion_newton"), (polyroots, "_newton"), (polyroots, "_isolated"),
        (dispersion, "_nearest"), (dispersion, "_step"))}
    companion = []  # non-empty while a companion solve runs its own Newton steps

    def companion_newton(q, coeffs):
        counts["companion_rows"] += len(q)
        companion.append(True)
        try:
            return originals[polyroots, "_companion_newton"](q, coeffs)
        finally:
            companion.pop()

    def newton(coeffs, roots, steps=polyroots.NEWTON_STEPS):
        if not companion:
            counts["guessed_newton_steps"] += len(roots) * steps
        return originals[polyroots, "_newton"](coeffs, roots, steps)

    def isolated(*args):
        kept = originals[polyroots, "_isolated"](*args)
        counts["newton_kept_rows"] += int(kept.sum())
        return kept

    def nearest(prev, new):
        counts["nearest_rows"] += int(np.prod(np.shape(new)[:-1]))
        return originals[dispersion, "_nearest"](prev, new)

    def step(prev, new):
        order, collides, safe = originals[dispersion, "_step"](prev, new)
        return order.view(_CountedOrder), collides, safe

    wrapped = (companion_newton, newton, isolated, nearest, step)
    _CountedOrder.composed = 0
    try:
        for (module, name), wrapper in zip(originals, wrapped):
            setattr(module, name, wrapper)
        track()
    finally:
        for (module, name), original in originals.items():
            setattr(module, name, original)
    return {**counts, "compositions": _CountedOrder.composed}


class _CountedExp:
    """numpy as the energy module sees it, with ``exp`` counting the entries it returns."""

    def __init__(self):
        self.entries = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def exp(self, x):
        out = np.exp(x)
        self.entries += out.size
        return out


def exponent_counts(exponent, args) -> dict:
    """Exact work counts of one call of the exponent layer: branch-root rows and trace entries."""
    from lorentzmodes import energy

    rows = []
    branch, counted_np = energy.branch_eigenvalue, _CountedExp()

    def branch_eigenvalue(medium, label, k):
        rows.append(np.size(k))
        return branch(medium, label, k)

    try:
        energy.branch_eigenvalue, energy.np = branch_eigenvalue, counted_np
        exponent(*args)
    finally:
        energy.branch_eigenvalue, energy.np = branch, np
    return {"branch_rows": sum(rows), "trace_entries": counted_np.entries}


def time_layers(lm, medium) -> tuple[dict, dict]:
    """({layer: microseconds per call} of one round after one untimed round, work counts)."""
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
    calls = {name: (prepare, call) for name, prepare, call in todo}
    prepare, exponent = calls["exponent"]
    counts = {"track": track_counts(calls["track"][1]),
              "exponent": exponent_counts(exponent, prepare(float(ks[0])))}
    return {name: ns / CALLS / 1e3 for name, ns in spent.items()}, counts


def one_round(src: str) -> dict:
    """{medium size: (layer timings, work counts)} for one round on the lorentzmodes in src."""
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
                   **{layer: round(min(rnd[side][size][0][layer] for rnd in rounds), 1)
                      for layer in rounds[0][side][size][0]}}
            for size, data in MEDIA.items()
        }

    def counts(side, layer):
        per_round = [{size: rnd[side][size][1][layer] for size in MEDIA} for rnd in rounds]
        if any(c != per_round[0] for c in per_round):
            raise RuntimeError(f"{layer} counts differ between rounds: {per_round}")
        return per_round[0]

    import scipy

    record = {
        "unit": f"us of thread CPU time per call, best of {ROUNDS} rounds of {CALLS} calls",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "malloc": MALLOC,
        "media": best(0),
        "track_counts": counts(0, "track"),
        "exponent_counts": counts(0, "exponent"),
    }
    print(json.dumps(record["media"]), json.dumps(record["track_counts"]),
          json.dumps(record["exponent_counts"]), flush=True)
    if args.against:
        record["against"] = best(1)
        record["against_track_counts"] = counts(1, "track")
        record["against_exponent_counts"] = counts(1, "exponent")
        print("against", json.dumps(record["against_track_counts"]),
              json.dumps(record["against_exponent_counts"]), flush=True)

        def spread(size, layer):
            per_round = [rnd[0][size][0][layer] / rnd[1][size][0][layer] for rnd in rounds]
            q1, median, q3 = (round(float(q), 3) for q in np.percentile(per_round, [25, 50, 75]))
            return {"median": median, "iqr": [q1, q3]}

        record["ratio"] = {
            size: {layer: spread(size, layer) for layer in layer_times}
            for size, (layer_times, _) in rounds[0][0].items()
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
