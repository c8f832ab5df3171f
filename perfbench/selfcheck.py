#!/usr/bin/env python3
"""Fast self-check of the benchmark harness at tiny sizes.

    python3 perfbench/selfcheck.py

Runs every workload of BENCHMARK.json once untraced and once traced with the
``tiny`` size, and asserts that the last line of each run has exactly the
contract keys and every metric BENCHMARK.json names, with its unit, as a
finite number (positive for end-to-end metrics).  It also checks that a
directory holding only BENCHMARK.json and the benchmark fails without a
result.  Exits 1 on the first mismatch.
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def last_json(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def check_run(spec, workload, trace):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "1", "--seconds", "0",
         "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}"
    result = last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True, f"{workload}: outputs not correct\n{proc.stdout}"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    got = result["metrics"]
    assert set(got) == {m["name"] for m in wanted}, (
        f"{workload} trace={trace}: missing {sorted({m['name'] for m in wanted} - set(got))}, "
        f"extra {sorted(set(got) - {m['name'] for m in wanted})}"
    )
    for m in wanted:
        entry = got[m["name"]]
        assert entry["unit"] == m["unit"], f"{m['name']}: unit {entry['unit']} != {m['unit']}"
        value = entry["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), f"{m['name']}={value}"
        if not trace:
            assert value > 0, f"{m['name']} must be positive, got {value}"
    for m in spec["end_to_end"] if not trace else []:
        assert f"metric {m['name']} = " in proc.stdout, f"{m['name']} not printed by name"
    print(f"ok  {workload:<10} trace={trace}  {len(got)} metrics")


def check_bare_directory(spec):
    """Only BENCHMARK.json and the benchmark's paths: must fail, print no result."""
    run_dir = ROOT / ".perfbench"
    run_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run_dir) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, Path(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            spec["command"] + ["--workload", spec["workloads"][0]["name"], "--seed", "1",
                               "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    assert proc.returncode != 0, "bare directory run exited 0"
    assert '"metrics"' not in proc.stdout, "bare directory run printed a result"
    print("ok  bare directory fails without a result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        check_bare_directory(spec)
        for workload in spec["workloads"]:
            for trace in (0, 1):
                check_run(spec, workload["name"], trace)
    except AssertionError as exc:
        print(f"FAIL {exc}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
