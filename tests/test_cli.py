"""Command-line interface: config parsing, artifacts, exit codes, determinism."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import lorentzmodes
from lorentzmodes import cli

REFERENCE_CFG = """\
[medium]
eps0 = 1.0
mu0 = 1.0

[electric.1]
omega = 1.0
Omega = 1.0
alpha = 0.1

[magnetic.1]
omega = 2.0
Omega = 1.0
alpha = 0.2
"""

CRITICAL_CFG = """\
[medium]
eps0 = 1.0
mu0 = 1.0

[electric.1]
omega = 1.0
Omega = 1.0
alpha = 0.0

[electric.2]
omega = 1.5
Omega = 1.0
alpha = 0.3

[magnetic.1]
omega = 2.0
Omega = 1.0
alpha = 0.0
"""


LOSSLESS_CFG = """\
[medium]
eps0 = 1.0
mu0 = 1.0

[electric.1]
omega = 1.0
Omega = 1.0
alpha = 0.0

[magnetic.1]
omega = 2.0
Omega = 0.8
alpha = 0.0
"""


def run_python(*argv, cwd=None):
    # the package's absolute parent goes first on the path, so runs from any
    # working directory import the code under test
    env = dict(os.environ)
    src = str(Path(lorentzmodes.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


def run_cli(*argv, cwd=None):
    return run_python("-m", "lorentzmodes.cli", *argv, cwd=cwd)


@pytest.fixture()
def reference_cfg(tmp_path):
    path = tmp_path / "reference.cfg"
    path.write_text(REFERENCE_CFG)
    return path


@pytest.fixture()
def critical_cfg(tmp_path):
    path = tmp_path / "critical.cfg"
    path.write_text(CRITICAL_CFG)
    return path


def test_import_loads_no_scipy():
    res = run_python(
        "-c",
        "import sys, lorentzmodes; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])",
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


class TestClassify:
    def test_strong_noncritical(self, reference_cfg, tmp_path):
        res = run_cli("classify", "--config", str(reference_cfg), "--out", str(tmp_path / "o"))
        assert res.returncode == 0
        assert "Strong, NonCritical" in res.stdout
        assert (tmp_path / "o" / "classify.txt").exists()

    def test_weak_critical(self, critical_cfg, tmp_path):
        res = run_cli("classify", "--config", str(critical_cfg), "--out", str(tmp_path / "o"))
        assert res.returncode == 0
        assert "Weak, Critical (condition 1)" in res.stdout

    def test_missing_config_exit_2(self, tmp_path):
        res = run_cli("classify", "--config", str(tmp_path / "nope.cfg"))
        assert res.returncode == 2
        assert res.stderr.strip()

    def test_malformed_medium_exit_2(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[medium]\neps0 = 1.0\nmu0 = 1.0\n\n[electric.1]\nomega = 1.0\nOmega = 1.0\nalpha = -0.5\n")
        res = run_cli("classify", "--config", str(bad))
        assert res.returncode == 2


class TestBranches:
    def test_outputs_and_diagnostics(self, reference_cfg, tmp_path):
        out = tmp_path / "b"
        res = run_cli(
            "branches",
            "--config", str(reference_cfg),
            "--out", str(out),
            "--points-per-decade", "50",
        )
        assert res.returncode == 0, res.stderr
        assert "k_minus" in res.stdout and "k_plus" in res.stdout
        header = (out / "branches.csv").read_text().splitlines()[0]
        assert header == "k,branch_label,re_omega,im_omega"
        conv_header = (out / "convergence.csv").read_text().splitlines()[0]
        assert conv_header == "k,residual,expected_order,fitted_order,branch"

    def test_byte_identical_rerun(self, reference_cfg, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            res = run_cli(
                "branches",
                "--config", str(reference_cfg),
                "--out", str(out),
                "--points-per-decade", "40",
                "--seed", "11",
            )
            assert res.returncode == 0, res.stderr
            outs.append((out / "branches.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_branch_counts_across_media(self, reference_cfg, critical_cfg, tmp_path):
        double_pole = tmp_path / "double_pole.cfg"
        double_pole.write_text(
            CRITICAL_CFG.replace("omega = 2.0", "omega = 1.0").replace(
                "alpha = 0.3", "alpha = 0.4"
            )
        )
        for cfg, count in ((reference_cfg, 6), (critical_cfg, 8), (double_pole, 8)):
            res = run_cli(
                "branches", "--config", str(cfg),
                "--out", str(tmp_path / f"n{count}"),
                "--points-per-decade", "40",
            )
            assert res.returncode == 0, res.stderr
            assert f"branches: {count}" in res.stdout

    def test_bad_k_range_exit_2(self, reference_cfg, tmp_path):
        out = tmp_path / "bad"
        for command, k_min, k_max in (("branches", "10", "1"), ("projectors", "0", "1")):
            res = run_cli(
                command, "--config", str(reference_cfg), "--out", str(out),
                "--k-min", k_min, "--k-max", k_max,
            )
            assert res.returncode == 2, res.stderr
            assert "configuration error:" in res.stderr
            assert "Traceback" not in res.stderr
        assert not out.exists()

    def test_bad_evolve_and_energy_values_exit_2(self, reference_cfg, tmp_path, capsys):
        # in process: an uncaught exception fails the test as a traceback would
        out = tmp_path / "bad"
        for args in (
            ("evolve", "--k", "nan"),
            ("evolve", "--t-max", "-5"),
            ("evolve", "--t-max", "inf"),
            ("evolve", "--time-points", "0"),
            ("energy", "--p", "-1"),
            ("energy", "--p", "nan"),
            ("energy", "--band", "hf", "--m", "0"),
            ("energy", "--band", "hf", "--m", "inf"),
        ):
            code = cli.main([args[0], "--config", str(reference_cfg), "--out", str(out), *args[1:]])
            err = capsys.readouterr().err
            assert code == 2, (args, err)
            assert err.startswith("configuration error:")
        assert not out.exists()


class TestEvolve:
    def test_monotone_norm_trace(self, reference_cfg, tmp_path):
        out = tmp_path / "e"
        res = run_cli(
            "evolve", "--config", str(reference_cfg), "--out", str(out),
            "--k", "1.0", "--t-max", "50", "--seed", "0",
        )
        assert res.returncode == 0, res.stderr
        rows = (out / "evolve.csv").read_text().splitlines()[1:]
        norms = [float(r.split(",")[2]) for r in rows]
        assert norms[0] == pytest.approx(1.0)
        assert all(b <= a + 1e-10 for a, b in zip(norms, norms[1:]))

    def test_byte_identical_rerun(self, reference_cfg, tmp_path):
        blobs = []
        for name in ("e1", "e2"):
            out = tmp_path / name
            res = run_cli(
                "evolve", "--config", str(reference_cfg), "--out", str(out),
                "--k", "0.8", "--t-max", "20", "--seed", "5",
            )
            assert res.returncode == 0
            blobs.append((out / "evolve.csv").read_bytes())
        assert blobs[0] == blobs[1]


class TestEnergyAndFit:
    def test_lf_energy_report_and_fit_roundtrip(self, reference_cfg, tmp_path):
        out = tmp_path / "g"
        res = run_cli(
            "energy", "--config", str(reference_cfg), "--out", str(out),
            "--band", "lf", "--p", "0",
        )
        assert res.returncode == 0, res.stderr
        report = (out / "energy_report.txt").read_text()
        assert "fitted_gamma=1.4" in report or "fitted_gamma=1.5" in report
        # feed the CSV back through the fit command
        res2 = run_cli(
            "fit", "--input", str(out / "energy.csv"),
            "--t-min", "2000", "--t-max", "90000",
        )
        assert res2.returncode == 0, res2.stderr
        assert "fitted_gamma=1." in res2.stdout

    def test_no_out_flag_writes_nothing(self, reference_cfg, tmp_path):
        # classify and fit only print unless --out is given
        t = [10.0**e for e in (1, 2, 3, 4)]
        csv_path = tmp_path / "decay.csv"
        csv_path.write_text("t,energy\n" + "".join(f"{x},{x**-1.5}\n" for x in t))
        work = tmp_path / "cwd"
        work.mkdir()
        res = run_cli("classify", "--config", str(reference_cfg), cwd=work)
        assert res.returncode == 0, res.stderr
        res = run_cli("fit", "--input", str(csv_path), "--t-min", "100", "--t-max", "1e4",
                      cwd=work)
        assert res.returncode == 0, res.stderr
        assert "fitted_gamma=1.500000" in res.stdout
        assert list(work.iterdir()) == []

    def test_hf_energy_on_lossless_medium_exit_1(self, tmp_path):
        cfg = tmp_path / "lossless.cfg"
        cfg.write_text(LOSSLESS_CFG)
        out = tmp_path / "g"
        res = run_cli("energy", "--config", str(cfg), "--out", str(out), "--band", "hf")
        assert res.returncode == 1
        assert "analysis failure: no dissipation reaches the high band" in res.stderr
        assert "Traceback" not in res.stderr

    def test_fit_missing_input_exit_2(self, tmp_path):
        res = run_cli("fit", "--input", str(tmp_path / "none.csv"))
        assert res.returncode == 2

    def test_fit_non_power_law_exit_1(self, tmp_path):
        import numpy as np

        t = np.geomspace(1.0, 500.0, 40)
        csv_path = tmp_path / "exp.csv"
        csv_path.write_text(
            "t,energy\n" + "\n".join(f"{x},{np.exp(-x)}" for x in t) + "\n"
        )
        res = run_cli("fit", "--input", str(csv_path), "--t-min", "100", "--t-max", "500")
        assert res.returncode == 1
        assert "analysis failure" in res.stderr


class TestProjectorsCommand:
    def test_sweep_csv(self, reference_cfg, tmp_path):
        out = tmp_path / "p"
        res = run_cli(
            "projectors", "--config", str(reference_cfg), "--out", str(out),
            "--points-per-decade", "40", "--samples", "4",
        )
        assert res.returncode == 0, res.stderr
        lines = (out / "projectors.csv").read_text().splitlines()
        assert lines[0] == "k,branch,norm,residual"
        assert len(lines) > 10
