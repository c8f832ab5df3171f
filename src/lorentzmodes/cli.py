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

Oscillator blocks repeat with increasing suffix.  Any other section, and any
other key in [medium] or in an oscillator block, is refused.  Every [run] key
can be overridden by the matching command-line flag.  Exit codes: 0 success,
1 analysis failure, 2 configuration or IO error.
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
    for section in parser.sections():
        if section not in ("medium", "run") and not section.startswith(("electric.", "magnetic.")):
            raise ConfigError(f"unknown section [{section}] in {path}")

    def floats_of(section, keys):
        """The section's values as floats; its keys must be exactly keys."""
        unknown = sorted(set(parser[section]) - set(keys))
        if unknown:
            raise ConfigError(f"[{section}] has unknown keys {unknown}")
        missing = [k for k in keys if k not in parser[section]]
        if missing:
            raise ConfigError(f"[{section}] missing keys {missing}")
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

    med = floats_of("medium", ("eps0", "mu0"))

    def index(section):
        try:
            return int(section.split(".", 1)[1])
        except ValueError:
            raise ConfigError(f"oscillator section [{section}] needs an integer suffix") from None

    def family(prefix):
        blocks = sorted(
            (s for s in parser.sections() if s.startswith(prefix + ".")), key=index
        )
        oscillators = []
        for sec in blocks:
            vals = floats_of(sec, ("omega", "Omega", "alpha"))
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


def _number(args, run, name, default):
    """_setting for a numeric option; a [run] value must parse as a number."""
    value = _setting(args, run, name, default)
    _require(not isinstance(value, str), f"{name} must be a number, got {value!r}")
    return value


def _count(args, run, name, default) -> int:
    """_number for an integer option; a [run] value must be a whole number."""
    value = _number(args, run, name, default)
    whole = isinstance(value, int) or value.is_integer()
    _require(whole, f"{name} must be an integer, got {value!r}")
    return int(value)


def _tracked(medium, args, run):
    """(classified branches, diagnosed (k_minus, k_plus)) on the run's k grid."""
    k_min, k_max = (_number(args, run, name, None) for name in ("k_min", "k_max"))
    ppd = _count(args, run, "points_per_decade", 200)
    _require(ppd >= 1, f"--points-per-decade must be at least 1, got {ppd}")
    grid = disp.default_k_grid(medium, ppd)
    if k_min is not None or k_max is not None:
        lo = k_min if k_min is not None else grid[0]
        hi = k_max if k_max is not None else grid[-1]
        _require(0 < lo < hi, f"need 0 < k_min < k_max, got k_min={lo:g} k_max={hi:g}")
        span = f"need a finite span k_max / k_min, got k_min={lo:g} k_max={hi:g}"
        _require(math.isfinite(hi / lo), span)
        grid = disp._log_grid(lo, hi, ppd)
    branches = disp.classify_branches(disp.track_branches(medium, grid), medium)
    return branches, disp.diagnose_bands(branches, medium.asymptotic_coefficients())


def cmd_classify(args) -> int:
    medium, _ = load_medium_config(args.config)
    report = medium.check_assumptions()
    lines = [f"configuration: {report.summary()}"]
    for name, satisfied, witness in (
        ("H1", report.h1_satisfied, report.h1_witness),
        ("H2", report.h2_satisfied, report.h2_witness),
    ):
        lines.append(f"{name} satisfied: {satisfied}")
        if not satisfied:
            lines.append(f"  witness: {witness}")
    if report.h1_satisfied and report.h2_satisfied:
        catalog = medium.catalog
        for kind, entries in (("poles", catalog.poles), ("zeros", catalog.zeros)):
            lines.append(f"{kind} (location, multiplicity, class):")
            lines.extend(
                f"  {e.location:.12g}  m={e.multiplicity}  {e.klass.value}" for e in entries
            )
    text = "\n".join(lines)
    print(text)
    if args.out:
        (_out_dir(args) / "classify.txt").write_text(text + "\n")
    return 0


def cmd_branches(args) -> int:
    medium, run = load_medium_config(args.config)
    branches, (k_minus, k_plus) = _tracked(medium, args, run)
    print(f"diagnosed bands: k_minus={k_minus:g} k_plus={k_plus:g}")
    print(f"branches: {len(branches)}")

    out = _out_dir(args)
    rows = []
    for b in branches:
        label = b.label_text()
        for k, w in zip(b.k, b.omega):
            rows.append((_fmt(k), label, _fmt(w.real), _fmt(w.imag)))
    _write_csv(out / "branches.csv", ("k", "branch_label", "re_omega", "im_omega"), rows)

    conv_rows, table = [], medium.asymptotic_coefficients()
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
    n_samples = _count(args, run, "samples", 12)
    _require(n_samples >= 1, f"--samples must be at least 1, got {n_samples}")
    branches, (k_minus, k_plus) = _tracked(medium, args, run)
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
    k = _number(args, run, "k", 1.0)
    t_max = _number(args, run, "t_max", 100.0)
    n_t = _count(args, run, "time_points", 200)
    seed = _count(args, run, "seed", 0)
    _require(math.isfinite(k), f"--k must be finite, got {k}")
    _require(0 <= t_max < math.inf, f"--t-max must be finite and nonnegative, got {t_max}")
    _require(n_t >= 1, f"--time-points must be at least 1, got {n_t}")
    _require(seed >= 0, f"--seed must be nonnegative, got {seed}")
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
        p = _number(args, run, "p", 0.0)
        _require(0 <= p < math.inf, f"--p must be finite and nonnegative, got {p}")
        verify = functools.partial(energy_mod.verify_gamma_lf, medium, p)
    elif band == "hf":
        m = _number(args, run, "m", 2.0)
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
    _require(
        args.t_min < args.t_max,
        f"fit window needs --t-min below --t-max, got --t-min {args.t_min:g} "
        f"--t-max {args.t_max:g}",
    )
    floor = energy_mod.FIT_T_MIN
    _require(args.t_min >= floor, f"--t-min must be at least {floor:g}, got {args.t_min:g}")
    path = Path(args.input)
    if not path.is_file():
        raise ConfigError(f"decay CSV not found: {path}")
    t, e = [], []
    with open(path) as fh:
        reader = csv.DictReader(fh)
        missing = [col for col in ("t", "energy") if col not in (reader.fieldnames or ())]
        if missing:
            raise ConfigError(f"{path} has no {' or '.join(missing)} column")
        for row in reader:
            where = f"{path} line {reader.line_num}"
            for col, values in (("t", t), ("energy", e)):
                try:
                    values.append(float(row[col]))
                except (TypeError, ValueError):  # TypeError: a short row leaves None
                    raise ConfigError(f"{where}: non-numeric {col} value {row[col]!r}") from None
                _require(math.isfinite(values[-1]), f"{where}: non-finite {col} value {row[col]!r}")
            if len(t) > 1 and not t[-1] > t[-2]:
                raise ConfigError(f"{where}: t value {row['t']!r} does not increase past {t[-2]:g}")
    gamma, conf = energy_mod.fit_exponent(np.asarray(t), np.asarray(e), (args.t_min, args.t_max))
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
    p.add_argument("--t-min", type=float, default=energy_mod.FIT_T_MIN)
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
