"""Command-line interface: configuration files in, CSV and text reports out.

Configuration file format (INI, case-sensitive keys)::

    [medium]
    eps0 = 1.0
    mu0 = 1.0

    [electric.1]
    omega = 1.0     ; resonance frequency
    Omega = 1.0     ; coupling strength
    alpha = 0.1     ; damping

    [magnetic.1]
    omega = 2.0
    Omega = 1.0
    alpha = 0.2

    [run]
    seed = 0
    k_min = 1e-3
    k_max = 1e3

Oscillator blocks repeat with increasing suffix.  Every [run] key can be
overridden by the matching command-line flag.  Exit codes: 0 success, 1
analysis failure, 2 configuration or IO error.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import functools
import math
import sys
from pathlib import Path

import numpy as np

from . import dispersion as disp
from . import energy as energy_mod
from . import evolution
from .errors import ConfigError, LorentzModesError
from .medium import LorentzMedium, Oscillator
from .operators import build_perp_operator, projector_norm_sweep


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def load_medium_config(path: str | Path):
    """(medium, run_parameters) from a configuration file."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"configuration file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    parser.optionxform = str  # keys are case-sensitive (omega vs Omega)
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    if "medium" not in parser:
        raise ConfigError(f"{path} has no [medium] section")

    def floats_of(section):
        try:
            return {k: float(v) for k, v in parser[section].items()}
        except ValueError as exc:
            raise ConfigError(f"non-numeric value in [{section}]: {exc}") from exc

    def run_of(section):
        out = {}
        for k, v in parser[section].items():
            try:
                out[k] = float(v)
            except ValueError:
                out[k] = v  # run parameters may be symbolic (e.g. band = lf)
        return out

    med = floats_of("medium")
    for key in ("eps0", "mu0"):
        if key not in med:
            raise ConfigError(f"[medium] must define {key}")

    def family(prefix):
        blocks = sorted(
            (s for s in parser.sections() if s.startswith(prefix + ".")),
            key=lambda s: int(s.split(".", 1)[1]),
        )
        oscillators = []
        for sec in blocks:
            vals = floats_of(sec)
            missing = {"omega", "Omega", "alpha"} - set(vals)
            if missing:
                raise ConfigError(f"[{sec}] missing keys {sorted(missing)}")
            oscillators.append(
                Oscillator(
                    coupling=vals["Omega"], resonance=vals["omega"], damping=vals["alpha"]
                )
            )
        return tuple(oscillators)

    try:
        medium = LorentzMedium(
            eps0=med["eps0"],
            mu0=med["mu0"],
            electric=family("electric"),
            magnetic=family("magnetic"),
        )
    except LorentzModesError as exc:
        raise ConfigError(f"invalid medium in {path}: {exc}") from exc
    run = run_of("run") if "run" in parser else {}
    return medium, run


def _write_csv(path: Path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _setting(args, run, name, default):
    """The command-line value of name, else its [run] value, else default."""
    value = getattr(args, name)
    return value if value is not None else run.get(name, default)


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise ConfigError(message)


def _tracked(medium, args, run):
    k_min = _setting(args, run, "k_min", None)
    k_max = _setting(args, run, "k_max", None)
    ppd = int(args.points_per_decade or run.get("points_per_decade", 200))
    grid = disp.default_k_grid(medium, ppd)
    if k_min is not None or k_max is not None:
        lo = float(k_min) if k_min is not None else grid[0]
        hi = float(k_max) if k_max is not None else grid[-1]
        _require(0 < lo < hi, f"need 0 < k_min < k_max, got k_min={lo:g} k_max={hi:g}")
        grid = disp._log_grid(lo, hi, ppd)
    return disp.classify_branches(disp.track_branches(medium, grid), medium)


def cmd_classify(args) -> int:
    medium, _ = load_medium_config(args.config)
    report = medium.check_assumptions()
    lines = [f"configuration: {report.summary()}"]
    lines.append(f"H1 satisfied: {report.h1_satisfied}")
    if not report.h1_satisfied:
        lines.append(f"  witness: {report.h1_witness}")
    lines.append(f"H2 satisfied: {report.h2_satisfied}")
    if not report.h2_satisfied:
        lines.append(f"  witness: {report.h2_witness}")
    if report.h1_satisfied and report.h2_satisfied:
        catalog = medium.catalog
        lines.append("poles (location, multiplicity, class):")
        for p in catalog.poles:
            lines.append(
                f"  {p.location:.12g}  m={p.multiplicity}  {p.klass.value}"
            )
        lines.append("zeros (location, multiplicity, class):")
        for z in catalog.zeros:
            lines.append(
                f"  {z.location:.12g}  m={z.multiplicity}  {z.klass.value}"
            )
    text = "\n".join(lines)
    print(text)
    if args.out:
        (_out_dir(args) / "classify.txt").write_text(text + "\n")
    return 0


def cmd_branches(args) -> int:
    medium, run = load_medium_config(args.config)
    branches = _tracked(medium, args, run)
    table = medium.asymptotic_coefficients()
    k_minus, k_plus = disp.diagnose_bands(branches, table)
    print(f"diagnosed bands: k_minus={k_minus:g} k_plus={k_plus:g}")
    print(f"branches: {len(branches)}")

    out = _out_dir(args)
    rows = []
    for b in branches:
        label = b.label_text()
        for k, w in zip(b.k, b.omega):
            rows.append((_fmt(k), label, _fmt(w.real), _fmt(w.imag)))
    _write_csv(out / "branches.csv", ("k", "branch_label", "re_omega", "im_omega"), rows)

    conv_rows = []
    grid = branches[0].k
    # probes stay within a decade of the band edge so residuals clear the
    # root-solver noise floor
    hf_sel = grid[(grid >= k_plus) & (grid <= 10.0 * k_plus)]
    lf_sel = grid[(grid <= k_minus) & (grid >= k_minus / 10.0)]
    hf_probe = hf_sel[:: max(1, len(hf_sel) // 8)]
    lf_probe = lf_sel[:: max(1, len(lf_sel) // 8)]
    for b in branches:
        for regime, probe in (("hf", hf_probe), ("lf", lf_probe)):
            if len(probe) < 3:
                continue
            rep = disp.verify_asymptotics(b, table, probe, regime=regime)
            for k, r in zip(rep.k_probe, rep.residuals):
                conv_rows.append(
                    (
                        _fmt(k),
                        _fmt(r),
                        _fmt(rep.expected_order),
                        _fmt(rep.fitted_order),
                        f"{b.label_text()}:{regime}",
                    )
                )
    _write_csv(
        out / "convergence.csv",
        ("k", "residual", "expected_order", "fitted_order", "branch"),
        conv_rows,
    )
    print(f"wrote {out / 'branches.csv'} and {out / 'convergence.csv'}")
    return 0


def cmd_projectors(args) -> int:
    medium, run = load_medium_config(args.config)
    branches = _tracked(medium, args, run)
    table = medium.asymptotic_coefficients()
    k_minus, k_plus = disp.diagnose_bands(branches, table)
    n_samples = int(args.samples or run.get("samples", 12))
    out = _out_dir(args)

    rows = []
    for b in branches:
        for regime, band in (
            ("hf", np.geomspace(k_plus, min(100 * k_plus, b.k[-1]), n_samples)),
            ("lf", np.geomspace(max(k_minus / 100, b.k[0]), k_minus, n_samples)),
        ):
            label = f"{b.label_text()}:{regime}"
            for k, norm, residual in projector_norm_sweep(medium, b, band):
                rows.append((_fmt(k), label, _fmt(norm), _fmt(residual)))
    _write_csv(out / "projectors.csv", ("k", "branch", "norm", "residual"), rows)
    print(f"wrote {out / 'projectors.csv'}")
    return 0


def cmd_evolve(args) -> int:
    medium, run = load_medium_config(args.config)
    k = float(_setting(args, run, "k", 1.0))
    t_max = float(_setting(args, run, "t_max", 100.0))
    n_t = int(_setting(args, run, "time_points", 200))
    seed = int(_setting(args, run, "seed", 0))
    _require(math.isfinite(k), f"--k must be finite, got {k}")
    _require(0 <= t_max < math.inf, f"--t-max must be finite and nonnegative, got {t_max}")
    _require(n_t >= 1, f"--time-points must be at least 1, got {n_t}")
    op = build_perp_operator(medium, k)
    rng = np.random.default_rng(seed)
    u0 = rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim)
    u0 = u0 / op.norm(u0)
    t_grid = np.linspace(0.0, t_max, n_t)
    res = evolution.propagate(op, u0, t_grid, keep_states=False)
    out = _out_dir(args)
    _write_csv(
        out / "evolve.csv",
        ("k", "t", "norm"),
        [(_fmt(k), _fmt(t), _fmt(n)) for t, n in zip(res.t_grid, res.norms)],
    )
    print(f"wrote {out / 'evolve.csv'} (method={res.method})")
    return 0


def cmd_energy(args) -> int:
    medium, run = load_medium_config(args.config)
    band = args.band or run.get("band", "lf")
    if band == "lf":
        p = float(_setting(args, run, "p", 0.0))
        _require(0 <= p < math.inf, f"--p must be finite and nonnegative, got {p}")
        verify = functools.partial(energy_mod.verify_gamma_lf, medium, p)
    elif band == "hf":
        m = float(_setting(args, run, "m", 2.0))
        _require(0 < m < math.inf, f"--m must be finite and positive, got {m}")
        verify = functools.partial(energy_mod.verify_gamma_hf, medium, m)
    else:
        raise ConfigError(f"unknown band {band!r} (use lf or hf)")
    out = _out_dir(args)
    report = verify()
    record = report.record
    _write_csv(
        out / "energy.csv",
        ("t", "energy"),
        [(_fmt(t), _fmt(e)) for t, e in zip(record.t_grid, record.energy)],
    )
    (out / "energy_report.txt").write_text(report.text() + "\n")
    print(report.text())
    print(f"wrote {out / 'energy.csv'}")
    return 0


def cmd_fit(args) -> int:
    path = Path(args.input)
    if not path.is_file():
        raise ConfigError(f"decay CSV not found: {path}")
    t, e = [], []
    with open(path) as fh:
        for row in csv.DictReader(fh):
            t.append(float(row["t"]))
            e.append(float(row["energy"]))
    record = energy_mod.DecayRecord(
        t_grid=np.asarray(t), energy=np.asarray(e), tag=str(path), panels=0
    )
    gamma, conf = energy_mod.fit_exponent(record, (args.t_min, args.t_max))
    text = (
        f"fitted_gamma={gamma:.6f} confidence={conf:.6f} "
        f"window=[{args.t_min:g},{args.t_max:g}] source={path}"
    )
    print(text)
    if args.out:
        (_out_dir(args) / "fit_report.txt").write_text(text + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lorentzmodes",
        description="Modal analysis and decay experiments for Lorentz media",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_config=True, out_default="out"):
        if needs_config:
            p.add_argument("--config", required=True, help="medium configuration file")
        p.add_argument("--out", default=out_default, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="random seed")

    p = sub.add_parser("classify", help="dissipation class, criticality, catalog")
    common(p, out_default=None)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("branches", help="track and label dispersion branches")
    common(p)
    p.add_argument("--k-min", type=float, default=None)
    p.add_argument("--k-max", type=float, default=None)
    p.add_argument("--points-per-decade", type=int, default=None)
    p.set_defaults(func=cmd_branches)

    p = sub.add_parser("projectors", help="spectral projector norm sweeps")
    common(p)
    p.add_argument("--k-min", type=float, default=None)
    p.add_argument("--k-max", type=float, default=None)
    p.add_argument("--points-per-decade", type=int, default=None)
    p.add_argument("--samples", type=int, default=None, help="points per sweep")
    p.set_defaults(func=cmd_projectors)

    p = sub.add_parser("evolve", help="propagate a random state at fixed k")
    common(p)
    p.add_argument("--k", type=float, default=None)
    p.add_argument("--t-max", type=float, default=None)
    p.add_argument("--time-points", type=int, default=None)
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("energy", help="energy decay run with exponent fit")
    common(p)
    p.add_argument("--band", choices=("lf", "hf"), default=None)
    p.add_argument("--p", type=float, default=None, help="low-band profile power")
    p.add_argument("--m", type=float, default=None, help="high-band Sobolev index")
    p.set_defaults(func=cmd_energy)

    p = sub.add_parser("fit", help="fit a power-law exponent to a decay CSV")
    common(p, needs_config=False, out_default=None)
    p.add_argument("--input", required=True, help="CSV with t and energy columns")
    p.add_argument("--t-min", type=float, default=1e2)
    p.add_argument("--t-max", type=float, default=1e6)
    p.set_defaults(func=cmd_fit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except LorentzModesError as exc:
        print(f"analysis failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
