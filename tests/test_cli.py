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

    @pytest.mark.parametrize(
        "name, text, witness",
        [
            (
                "H1",
                "[medium]\neps0 = 1.0\nmu0 = 1.0\n"
                "[electric.1]\nomega = 2.0\nOmega = 1.0\nalpha = 5.0\n"
                "[electric.2]\nomega = 1.0\nOmega = 1.0\nalpha = 4.25\n",
                "('electric', 0, 1, -4j)",
            ),
            (
                "H2",
                "[medium]\neps0 = 1.0\nmu0 = 1.0\n"
                "[electric.1]\nomega = 1.0\nOmega = 1.0\nalpha = 0.0\n"
                "[magnetic.1]\nomega = 1.4142135623730951\nOmega = 1.0\nalpha = 0.0\n",
                "('eps-zero is mu-pole', (1.414213562373095+0j))",
            ),
        ],
    )
    def test_violation_prints_its_witness(self, tmp_path, name, text, witness):
        config = tmp_path / "violating.cfg"
        config.write_text(text)
        res = run_cli("classify", "--config", str(config))
        assert res.returncode == 0, res.stderr
        assert f"{name} satisfied: False\n  witness: {witness}\n" in res.stdout
        assert "poles" not in res.stdout  # no catalog without H1 and H2

    def test_missing_config_exit_2(self, tmp_path):
        res = run_cli("classify", "--config", str(tmp_path / "nope.cfg"))
        assert res.returncode == 2
        assert res.stderr.strip()

    def test_malformed_medium_exit_2(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        for eps0, section, alpha, named in (
            ("1.0", "electric.1", "-0.5", "damping must be nonnegative"),
            ("nan", "electric.1", "0.5", "eps0 and mu0 must be positive and finite"),
            ("1.0", "electric.a", "0.5", "oscillator section [electric.a] needs an integer suffix"),
        ):
            bad.write_text(
                f"[medium]\neps0 = {eps0}\nmu0 = 1.0\n\n"
                f"[{section}]\nomega = 1.0\nOmega = 1.0\nalpha = {alpha}\n"
            )
            res = run_cli("classify", "--config", str(bad))
            assert res.returncode == 2, (section, res.stderr)
            assert named in res.stderr and "Traceback" not in res.stderr

    @pytest.mark.parametrize(
        "edit, named",
        [
            (("[electric.1]", "[electric]"), "unknown section [electric]"),
            (("[magnetic.1]", "[electrc.1]"), "unknown section [electrc.1]"),
            (("mu0 = 1.0", "mu0 = 1.0\nfoo = 3"), "[medium] has unknown keys ['foo']"),
            (("alpha = 0.1", "alpha = 0.1\nbeta = 2"), "[electric.1] has unknown keys ['beta']"),
        ],
    )
    def test_unknown_section_or_key_exit_2(self, tmp_path, edit, named):
        bad = tmp_path / "bad.cfg"
        bad.write_text(REFERENCE_CFG.replace(*edit, 1))
        with pytest.raises(cli.ConfigError) as exc:
            cli.load_medium_config(bad)
        assert named in str(exc.value)
        res = run_cli("classify", "--config", str(bad))
        assert res.returncode == 2, res.stderr
        assert named in res.stderr and "Traceback" not in res.stderr

    @pytest.mark.parametrize(
        "name, fixture",
        [("reference", "reference_medium"), ("critical", "critical_medium"),
         ("double_pole", "double_pole_medium")],
    )
    def test_shipped_configs_load(self, request, name, fixture):
        config = Path(__file__).resolve().parents[1] / "scripts" / "configs" / f"{name}.cfg"
        medium, run = cli.load_medium_config(config)
        assert medium == request.getfixturevalue(fixture)
        assert run == {"seed": 0.0}


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
        # the last three spans k_max / k_min overflow: an infinite k_max, a subnormal
        # k_min, and a finite ratio past the float range
        out = tmp_path / "bad"
        for command, k_min, k_max in (("branches", "10", "1"), ("projectors", "0", "1"),
                                      ("branches", "1e-3", "inf"), ("branches", "1e-320", "1"),
                                      ("projectors", "1e-3", "1e308")):
            res = run_cli(
                command, "--config", str(reference_cfg), "--out", str(out),
                "--k-min", k_min, "--k-max", k_max,
            )
            assert res.returncode == 2, res.stderr
            assert "configuration error:" in res.stderr
            assert "k_min=" in res.stderr and "k_max=" in res.stderr
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
            ("projectors", "--samples", "0"),
            ("projectors", "--points-per-decade", "0"),
            ("projectors", "--samples", "-2"),
            ("branches", "--points-per-decade", "0"),
            ("branches", "--points-per-decade", "-3"),
            ("evolve", "--seed", "-1"),
        ):
            code = cli.main([args[0], "--config", str(reference_cfg), "--out", str(out), *args[1:]])
            err = capsys.readouterr().err
            assert code == 2, (args, err)
            assert err.startswith("configuration error:")
        # [run] counts must be whole numbers, and the other numeric settings numbers
        for command, setting in (
            ("evolve", "k = abc"),
            ("branches", "k_min = lo"),
            ("energy", "p = x"),
            ("projectors", "samples = abc"),
            ("projectors", "samples = 2.5"),
            ("branches", "points_per_decade = abc"),
            ("branches", "points_per_decade = 20.5"),
            ("evolve", "time_points = 2.5"),
            ("evolve", "time_points = many"),
            ("evolve", "seed = 0.5"),
            ("evolve", "seed = abc"),
        ):
            config = tmp_path / "run.cfg"
            config.write_text(REFERENCE_CFG + f"\n[run]\n{setting}\n")
            code = cli.main([command, "--config", str(config), "--out", str(out)])
            err = capsys.readouterr().err
            assert code == 2, (command, setting, err)
            assert err.startswith("configuration error:")
            key, value = setting.split(" = ")
            assert key in err and value in err, err  # the message names the key and value
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

    @pytest.mark.parametrize("text, named", [
        ("t,power\n1,1\n10,0.03\n", "no energy column"),
        ("time,power\n1,1\n", "no t or energy column"),
        ("", "no t or energy column"),
        ("t,energy\n1,1\n10,abc\n", "line 3: non-numeric energy value 'abc'"),
        ("t,energy\n1,1\n10\n", "line 3: non-numeric energy value None"),
        ("t,energy\n,1\n", "line 2: non-numeric t value ''"),
        # a nan or inf energy used to fit nan with exit 0
        ("t,energy\n1e2,1\n1e3,nan\n", "line 3: non-finite energy value 'nan'"),
        ("t,energy\n1e2,1\n1e3,-inf\n", "line 3: non-finite energy value '-inf'"),
        ("t,energy\n1e2,1\ninf,0.03\n", "line 3: non-finite t value 'inf'"),
        # a repeated t used to divide by zero in fit_exponent's local slopes
        ("t,energy\n1e2,1\n1e2,0.03\n", "line 3: t value '1e2' does not increase past 100"),
        ("t,energy\n1e2,1\n1e3,0.03\n500,0.02\n",
         "line 4: t value '500' does not increase past 1000"),
    ])
    def test_fit_malformed_csv_exit_2(self, tmp_path, text, named):
        csv_path = tmp_path / "bad.csv"
        csv_path.write_text(text)
        res = run_cli("fit", "--input", str(csv_path))
        assert res.returncode == 2
        assert f"configuration error: {csv_path} " in res.stderr
        assert named in res.stderr
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("t_min, t_max", [
        ("nan", "1e5"), ("1e2", "nan"), ("1e5", "1e3"), ("1e3", "1e3"), ("inf", "inf"),
    ])
    def test_fit_empty_window_exit_2(self, tmp_path, capsys, t_min, t_max):
        csv_path = tmp_path / "decay.csv"
        t = [10.0**e for e in range(6)]
        csv_path.write_text("t,energy\n" + "".join(f"{x},{x**-1.5}\n" for x in t))
        args = ["fit", "--input", str(csv_path), "--t-min", t_min, "--t-max", t_max]
        assert cli.main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: fit window needs --t-min below --t-max")
        assert f"--t-min {float(t_min):g} --t-max {float(t_max):g}" in err
        # an open-ended window stays a valid one
        assert cli.main([*args[:3], "--t-min", "100", "--t-max", "inf"]) == 0
        assert "fitted_gamma=1.500000" in capsys.readouterr().out

    def test_fit_window_below_the_floor_exit_2(self, tmp_path, capsys):
        # refused before the input is read: the missing file is never reported
        missing = tmp_path / "none.csv"
        args = ["fit", "--input", str(missing), "--t-min", "50"]
        assert cli.main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: --t-min must be at least 100, got 50")
        assert "not found" not in err

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


SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_readme_library_tour_runs():
    readme = (SCRIPTS.parent / "README.md").read_text()
    tour = readme.split("## Library tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(tour, "README.md", "exec"), {})


def test_readme_scripts_run(tmp_path):
    res = run_python(str(SCRIPTS / "run_decay_exponents.py"), cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    header, *rows = res.stdout.splitlines()
    assert header.split() == ["experiment", "target", "fitted", "seconds"]
    names = [row.rsplit(None, 3)[0] for row in rows]
    assert names == [
        "reference lf p=0", "reference lf p=1", "reference lf p=2",
        "reference hf m=2", "critical hf m=2", "double_pole hf m=2",
    ]
    for row in rows:
        target, fitted = map(float, row.split()[-3:-1])
        assert abs(fitted - target) <= 0.1 * target, row

    res = run_python(
        str(SCRIPTS / "run_dispersion_atlas.py"), "--out", str(tmp_path), "--points-per-decade", "20"
    )
    assert res.returncode == 0, res.stderr
    for name in ("reference", "critical", "double_pole"):
        header, *rows = (tmp_path / f"{name}_branches.csv").read_text().splitlines()
        assert header == "k,branch_label,re_omega,im_omega"
        assert rows
