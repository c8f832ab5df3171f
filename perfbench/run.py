#!/usr/bin/env python3
"""Benchmark of the lorentzmodes pipeline, run from the root of a checkout.

    python3 perfbench/run.py --workload atlas --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py for why each exists): ``atlas``, ``exponents``
and ``modes``.  With ``--trace 0`` the run prints the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it runs the same loop half untraced and
half traced and prints the per-layer metrics plus the tracing overhead.  Every
metric is printed as ``metric <name> = <value> <unit> (n=<samples>)``, then a
``record`` line with the inputs and the environment, and last one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

The library is imported from ``src/`` of the checkout and runs on one thread:
``LORENTZMODES_THREADS`` is removed and the BLAS thread counts are set to 1.
CLI outputs and span files go to ``.perfbench/`` in the checkout.
"""

import argparse
import bisect
import hashlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench"
REFERENCE_CFG = ROOT / "scripts" / "configs" / "reference.cfg"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 120
#: set-up CPU seconds are reported as on a machine where one calibration
#: kernel run takes this long (a round value near its time on a 2.0 GHz Xeon)
KERNEL_REF_S = 1e-3

#: modules whose import self time is reported; each sums its submodules too
IMPORT_MODULES = (
    "lorentzmodes", "lorentzmodes.medium", "lorentzmodes.polyroots",
    "lorentzmodes.dispersion", "lorentzmodes.operators", "lorentzmodes.evolution",
    "lorentzmodes.energy", "numpy", "scipy.linalg", "scipy.optimize", "scipy.integrate",
)

#: functions whose time goes into the per-layer metrics of BENCHMARK.json: every
#: workload calls them, at least during set-up.  The others would read exactly
#: zero on some workload, so only their call counts go there; the printed
#: report has calls, s and self_s of every traced function.
TIMED_ON_EVERY_WORKLOAD = (
    "polyroots.companion_roots", "dispersion.solve_dispersion",
    "dispersion.track_branches", "dispersion.classify_branches",
    "dispersion.diagnose_bands", "medium.catalog", "medium.asymptotic_coefficients",
    "cli.load_medium_config",
)


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("LORENTZMODES_THREADS", None)
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    return env


def program_missing() -> str:
    for path in (SRC / "lorentzmodes" / "__init__.py", REFERENCE_CFG):
        if not path.is_file():
            return f"{path.relative_to(ROOT)} not found; run from a lorentzmodes checkout"
    return ""


class Report:
    """Printed metrics plus the subset that goes into the final JSON line."""

    def __init__(self):
        self.lines: list[str] = []
        self.metrics: dict = {}

    def add(self, name, value, unit, samples, final=False):
        self.lines.append(f"metric {name} = {value:.6g} {unit} (n={samples})")
        if final:
            self.metrics[name] = {"value": float(value), "unit": unit}


# --- fresh-process probes ----------------------------------------------------------------


def run_child(argv) -> subprocess.CompletedProcess:
    return subprocess.run(
        argv, cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )


def setup_probes(args, count) -> tuple[list, list]:
    """Set-up times of ``count`` fresh interpreters running this file's set-up."""
    times, errors = [], []
    for _ in range(count):
        proc = run_child([sys.executable, str(Path(__file__).resolve()), "--probe-setup",
                          "--workload", args.workload, "--seed", str(args.seed),
                          "--size", args.size])
        try:
            times.append(float(proc.stdout.strip().splitlines()[-1]))
        except (ValueError, IndexError):
            errors.append(f"set-up probe exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return times, errors


def cli_probes(count) -> tuple[list, list]:
    """Wall times of ``lorentzmodes classify`` cold starts, each with its own --out."""
    times, errors = [], []
    RUN_DIR.mkdir(exist_ok=True)
    for _ in range(count):
        with tempfile.TemporaryDirectory(dir=RUN_DIR) as out:
            t0 = time.perf_counter()
            proc = run_child([sys.executable, "-m", "lorentzmodes.cli", "classify",
                              "--config", str(REFERENCE_CFG), "--out", out])
            elapsed = time.perf_counter() - t0
            written = Path(out, "classify.txt")
            text = written.read_text() if written.is_file() else ""
        if proc.returncode == 0 and text.startswith("configuration: Strong, NonCritical"):
            times.append(elapsed)
        else:
            errors.append(f"cli classify exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return times, errors


def import_breakdown(count) -> dict:
    """Median self time in microseconds per module of IMPORT_MODULES."""
    samples = {name: [] for name in IMPORT_MODULES}
    for _ in range(count):
        proc = run_child([sys.executable, "-X", "importtime", "-c", "import lorentzmodes"])
        self_us = {}
        for line in proc.stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) == 3 and fields[0].strip().isdigit():
                self_us[fields[2].strip()] = int(fields[0])
        for name in IMPORT_MODULES:
            samples[name].append(sum(
                us for mod, us in self_us.items() if mod == name or mod.startswith(name + ".")
            ))
    return {name: statistics.median(v) for name, v in samples.items()}


# --- measurement ---------------------------------------------------------------------------


class Calibration:
    """Follows the machine's momentary speed with a fixed kernel.

    On a shared machine the same work can take up to twice as long from one
    stretch of seconds to minutes to the next, in CPU time too: the
    processor's speed moves with what the host's other tenants run.  A timer
    signal every ``PERIOD_S`` runs a kernel made of what dominates the
    library's own time, without calling the library: many numpy operations
    on tiny arrays, here 2 x 32 rows assembled from 2 x 2 blocks the way the
    operator and resolvent assembly builds them.  (Kernels of interpreted
    complex arithmetic or of LAPACK calls slowed less than the library's
    operations when the machine slowed; this one slowed as much.)  An
    operation's cost in calibration units is its CPU time, less the
    kernel's, divided by the mean kernel CPU time over the ticks from
    ``PAD_S`` before the operation to ``PAD_S`` after it.  CPU time leaves out
    the time the thread waits for a processor (other processes, or the
    host's steal time); the ratio takes out the processor's own swings.  A
    faster library lowers it.
    """

    PERIOD_S = 0.1
    PAD_S = 0.25
    WIDTH = 32  # columns of a row block
    BLOCKS = 48  # row blocks assembled per kernel run

    def __init__(self):
        import numpy as np

        self.j2 = np.array([[0, -1], [1, 0]], dtype=complex)
        self.ticks: list[tuple[float, float]] = []  # (start, CPU seconds) of each kernel run
        self.paused = (0.0, 0.0)  # wall and CPU seconds in the kernel since the last take()

    def kernel(self) -> tuple[float, float, float]:
        """(start, wall seconds, CPU seconds of this thread) of one kernel run."""
        import numpy as np

        t0, c0 = time.perf_counter(), time.thread_time()
        acc = np.zeros((2, self.WIDTH), dtype=complex)
        for j in range(self.BLOCKS):
            a = 2 * (j % (self.WIDTH // 2))
            b = (a + 2) % self.WIDTH
            row = np.zeros((2, self.WIDTH), dtype=complex)
            row[:, a:a + 2] = (1j / (j + 1.5)) * np.eye(2)
            row[:, b:b + 2] = -0.5 * np.eye(2)
            acc += -0.3j * row
            acc[:, a:a + 2] -= self.j2 / (j + 0.5 - 1j)
        return t0, time.perf_counter() - t0, time.thread_time() - c0

    def _tick(self, signum, frame):
        start, wall, cpu = self.kernel()
        self.ticks.append((start, cpu))
        self.paused = (self.paused[0] + wall, self.paused[1] + cpu)

    def __enter__(self):
        self.ticks = []
        self._tick(None, None)  # one sample even for a loop shorter than a period
        self.previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self.previous)

    def take(self) -> tuple[float, float]:
        """(wall, CPU) seconds spent in the kernel since the last call."""
        paused, self.paused = self.paused, (0.0, 0.0)
        return paused

    def mean_around(self, start: float, end: float) -> float:
        """Mean kernel CPU time over the ticks within ``PAD_S`` of [start, end]."""
        starts = [t for t, _ in self.ticks]
        lo = bisect.bisect_left(starts, start - self.PAD_S)
        hi = bisect.bisect_right(starts, end + self.PAD_S)
        near = self.ticks[lo:hi] or self.ticks
        return statistics.fmean(cpu for _, cpu in near)


def measure(workload, seconds, calibration, tracer=None) -> list:
    """Closed loop: operations back to back until ``seconds`` have passed.

    A workload that runs whole passes (the exponent table) stops only at the
    end of a pass.  Each outcome's times exclude the calibration kernel that
    ran during it; its calibration is the mean kernel CPU time around it.
    """
    outcomes, spans = [], []
    start = time.perf_counter()
    with calibration:
        while True:
            if tracer is not None:
                tracer.op_id = f"op{len(outcomes)}"
            calibration.take()
            t0 = time.perf_counter()
            out = workload.run(len(outcomes))
            spans.append((t0, time.perf_counter()))
            paused, paused_cpu = calibration.take()
            out.seconds -= paused
            out.cpu_seconds -= paused_cpu
            outcomes.append(out)
            done = spans[-1][1] - start >= seconds
            if done and (not workload.whole_passes or len(outcomes) % workload.pass_length == 0):
                break
    for out, (t0, t1) in zip(outcomes, spans):
        out.calibration = calibration.mean_around(t0, t1)
    return outcomes


def median_p90(values) -> tuple:
    import numpy as np

    if not values:
        return float("nan"), float("nan")
    return float(np.median(values)), float(np.percentile(values, 90))


def loop_metrics(workload, outcomes) -> dict:
    """Costs and raw times of the loop; latency over attempts, throughput over completions."""
    ok = [o for o in outcomes if not o.failed]
    out = {"n": len(outcomes)}
    costs = [o.cpu_seconds / o.calibration for o in outcomes]
    out["op_cost_mean"] = statistics.fmean(costs)
    out["op_cost_p50"], out["op_cost_p90"] = median_p90(costs)
    ok_cost = sum(o.cpu_seconds / o.calibration for o in ok)
    out["work_per_kcal"] = 1e3 * sum(o.work for o in ok) / ok_cost if ok_cost else 0.0
    out["op_ms_p50"], out["op_ms_p90"] = median_p90([1e3 * o.seconds for o in outcomes])
    out["work_per_s"] = sum(o.work for o in ok) / sum(o.seconds for o in outcomes)
    if workload.whole_passes:
        n = workload.pass_length
        passes = [outcomes[i:i + n] for i in range(0, len(outcomes), n)]
        tables = [sum(o.seconds for o in p) for p in passes if not any(o.failed for o in p)]
        out["pass_s"] = statistics.median(tables) if tables else float("nan")
        out["n_pass"] = len(tables)
    return out


def workload_names(workload_name, m, report):
    """The loop metrics again under the names the workload's users know."""
    if workload_name == "atlas":
        report.add("atlas_points_per_s", m["work_per_s"], "1/s", m["n"])
        report.add("atlas_medium_s_p50", m["op_ms_p50"] / 1e3, "s", m["n"])
    elif workload_name == "exponents":
        report.add("exponent_table_s", m["pass_s"], "s", m["n_pass"])
        report.add("exponent_run_s_p50", m["op_ms_p50"] / 1e3, "s", m["n"])
    else:
        report.add("modes_wavenumbers_per_s", m["work_per_s"], "1/s", m["n"])
        report.add("modes_wavenumber_ms_p50", m["op_ms_p50"], "ms", m["n"])
        report.add("modes_wavenumber_ms_p90", m["op_ms_p90"], "ms", m["n"])


def end_to_end(args, size, workload, setup_s, calibration) -> tuple[Report, list, list]:
    report = Report()
    # the loop runs first, straight after this process's own set-up
    outcomes = measure(workload, args.seconds, calibration)
    m = loop_metrics(workload, outcomes)
    setups, errors = setup_probes(args, size.setup_samples - 1)
    setups.append(setup_s)
    clis = []
    if args.workload == "atlas":
        clis, cli_errors = cli_probes(size.fresh_samples)
        errors += cli_errors

    report.add("setup_s", statistics.median(setups), "s", len(setups), final=True)
    report.add("op_cost_mean", m["op_cost_mean"], "cal", m["n"], final=True)
    report.add("op_cost_p50", m["op_cost_p50"], "cal", m["n"])
    report.add("op_cost_p90", m["op_cost_p90"], "cal", m["n"])
    report.add("work_per_kcal", m["work_per_kcal"], "1/kcal", m["n"], final=True)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report.add("peak_rss_mb", rss_mb, "MB", 1, final=True)
    report.add("op_ms_p50", m["op_ms_p50"], "ms", m["n"])
    report.add("op_ms_p90", m["op_ms_p90"], "ms", m["n"])
    report.add("work_per_s", m["work_per_s"], "1/s", m["n"])
    if clis:
        report.add("cli_cold_start_s", statistics.median(clis), "s", len(clis))
    workload_names(args.workload, m, report)
    return report, outcomes, errors


def traced(args, size, workload, calibration, tracer, saved) -> tuple[Report, list, list]:
    """Half the run untraced, half traced; per-layer metrics from the traced half.

    On atlas the traced half is followed by the survey of the seeded draws,
    traced too, so the per-layer counts include its collisions.
    """
    from spans import install, uninstall

    uninstall(saved)
    untraced = measure(workload, args.seconds / 2.0, calibration)
    plain = loop_metrics(workload, untraced)
    saved = install(tracer)
    try:
        outcomes = measure(workload, args.seconds / 2.0, calibration, tracer)
        tracer.op_id = "survey"
        survey = workload.survey() if hasattr(workload, "survey") else []
    finally:
        uninstall(saved)
    metrics = loop_metrics(workload, outcomes)

    report = Report()
    raised = [o for o in survey if o.error]
    if survey:
        report.add("draw_failed_ratio", len(raised) / len(survey), "ratio", len(survey))
    report.add("atlas.draws_failed", len(raised), "count", len(survey), final=True)
    totals = tracer.totals()
    for name, t in totals.items():
        report.add(f"{name}.calls", t["calls"], "count", 1, final=True)
        final = name in TIMED_ON_EVERY_WORKLOAD
        report.add(f"{name}.s", t["s"], "s", t["calls"], final=final)
        report.add(f"{name}.self_s", t["self_s"], "s", t["calls"], final=final)
    counts = tracer.counts
    points = counts["dispersion.track_branches.points"]
    contours = totals["operators.projector_contour"]["calls"]
    evaluated = counts["energy.nodes_evaluated"]
    for name, value, unit in (
        ("dispersion.track_branches.solves_per_point",
         counts["dispersion.track_branches.solves"] / points if points else 0.0, "ratio"),
        ("dispersion.branch_collisions", counts["dispersion.branch_collisions"], "count"),
        ("operators.projector_contour.resolvents_per_call",
         counts["operators.projector_contour.resolvents"] / contours if contours else 0.0,
         "ratio"),
        ("evolution.propagate.oracle_fallbacks",
         counts["evolution.propagate.oracle_fallbacks"], "count"),
        ("energy.nodes_evaluated", evaluated, "count"),
        ("energy.nodes_kept", counts["energy.nodes_kept"], "count"),
        ("energy.node_useful_ratio",
         counts["energy.nodes_kept"] / evaluated if evaluated else 0.0, "ratio"),
    ):
        report.add(name, value, unit, 1, final=True)
    for name, us in import_breakdown(size.import_samples).items():
        report.add(f"import.{name}.self_us", us, "us", size.import_samples, final=True)
    for name, unit in (("op_cost_mean", "cal"), ("op_ms_p50", "ms")):
        report.add(f"trace.overhead.{name}", metrics[name] - plain[name], unit,
                   metrics["n"], final=True)
    report.add("trace.spans", len(tracer.spans), "count", 1, final=True)

    RUN_DIR.mkdir(exist_ok=True)
    path = RUN_DIR / f"spans-{args.workload}-seed{args.seed}.csv"
    tracer.write_spans(path)
    report.lines.append(f"spans written to {path.relative_to(ROOT)}")
    errors = [f"draw: {o.check}" for o in survey if o.check]
    return report, untraced + outcomes, errors


# --- the record ----------------------------------------------------------------------------


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "lorentzmodes").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "lorentzmodes_threads": os.environ.get("LORENTZMODES_THREADS"),
        "commit": commit(),
        "src_sha256": digest.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the self-check's minimal sizes")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    missing = program_missing()
    if missing:
        print(f"perfbench: {missing}", file=sys.stderr)
        return 2
    os.environ.update(child_env())
    os.environ.pop("LORENTZMODES_THREADS", None)
    sys.path.insert(0, str(SRC))

    calibration = Calibration()
    # the kernel ticks through set-up too, so that set-up time is put on the
    # same machine-speed footing as the operations
    with calibration:
        import workloads

        if args.workload not in workloads.WORKLOADS:
            print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
            return 2
        size = workloads.TINY if args.size == "tiny" else workloads.FULL
        cls = workloads.WORKLOADS[args.workload]

        tracer = saved = None
        if args.trace:
            from spans import Tracer, install

            tracer = Tracer()
            saved = install(tracer)
        workload = cls(args.seed, size)
        # CPU time of the whole process so far: interpreter start, imports and inputs
        setup_cpu = time.process_time() - calibration.take()[1]
    setup_s = setup_cpu * KERNEL_REF_S / calibration.mean_around(-math.inf, math.inf)
    if args.probe_setup:
        print(setup_s)
        return 0
    if args.trace:
        report, outcomes, errors = traced(args, size, workload, calibration, tracer, saved)
    else:
        report, outcomes, errors = end_to_end(args, size, workload, setup_s, calibration)

    failed = [o for o in outcomes if o.failed]
    # every loop operation runs on a fixed input, so any failure is a fault;
    # a survey draw is wrong only when it completes with a wrong answer
    problems = [o.error or o.check for o in failed] + errors
    correct = not problems
    report.add("failed_ratio", len(failed) / len(outcomes), "ratio", len(outcomes))
    for line in report.lines:
        print(line)
    for problem in sorted(set(problems)):
        print(f"problem: {problem}")
    record = {
        "workload": args.workload,
        "reason": cls.reason,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "closed_loop_clients": 1,
        "inputs": workload.inputs(),
        "errors": {e: sum(o.error == e for o in failed) for e in {o.error for o in failed if o.error}},
        "environment": environment(),
    }
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": len(outcomes), "failed": len(failed),
                      "metrics": report.metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
