"""The three benchmark workloads: inputs made from a seed, one timed operation
at a time, and the output check of every operation.

Every workload is a closed loop: the next operation starts when the previous
one has finished.  The library sees only the media and wavenumbers built here;
the seed never reaches it.  Nothing passes ``threads=``, so the library runs
its default serial path.  Every operation of a loop runs on a fixed medium, so
a correct library fails none of them; the seeded atlas draws, on which the
library still raises ``BranchCollision``, are a separate survey of the traced
run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from lorentzmodes import cli, dispersion, energy, evolution, operators
from lorentzmodes.errors import AssumptionViolated, LorentzModesError
from lorentzmodes.medium import LorentzMedium, new_medium

CONFIGS = ("reference", "critical", "double_pole")

#: a Strong, NonCritical medium with N = 16 (4 electric, 3 magnetic oscillators)
WIDE_ELECTRIC = ((1, 0.8, 0.1), (0.7, 1.7, 0.15), (0.5, 2.9, 0.2), (0.4, 4.3, 0.25))
WIDE_MAGNETIC = ((0.8, 1.3, 0.12), (0.6, 2.3, 0.18), (0.4, 3.6, 0.22))

#: (electric, magnetic) oscillator counts of the seeded atlas draws; N runs 4..16
DRAW_SHAPES = ((1, 0), (1, 1), (2, 1), (2, 2), (3, 2), (4, 2), (4, 3), (3, 0))
#: damping regime of draw i is DAMPING_REGIMES[i % 4]
DAMPING_REGIMES = ("underdamped", "overdamped", "near_lossless", "lossless")

FIT_TOLERANCE = 0.10
PROJECTOR_TOL = 1e-8
RESOLVENT_TOL = 1e-9
NORM_INCREASE_TOL = 1e-10


@dataclass(frozen=True)
class Size:
    """How much work one operation and one run do; ``TINY`` is for the self-check."""

    points_per_decade: int = 200  # atlas grid density (default_k_grid's default)
    atlas_draws: int = len(DRAW_SHAPES)
    exponent_runs: int = 7  # leading entries of EXPONENT_TABLE
    time_samples: int = 201  # modes: dense linear time grid
    fresh_samples: int = 3  # cli cold starts per atlas run
    setup_samples: int = 3  # fresh-interpreter set-ups per run, this one included
    import_samples: int = 3  # -X importtime breakdowns per traced run


FULL = Size()
TINY = Size(points_per_decade=10, atlas_draws=2, exponent_runs=1, time_samples=21,
            fresh_samples=1, setup_samples=1, import_samples=1)


@dataclass
class Outcome:
    """One operation: its wall and CPU time, what went wrong if anything, and its work."""

    seconds: float
    cpu_seconds: float  # CPU time of the thread that ran it
    work: float = 0.0  # grid points, exponent runs or wavenumbers completed
    error: str = ""  # type of the LorentzModesError raised, if any
    check: str = ""  # the output check that failed, if any
    calibration: float = 0.0  # calibration kernel CPU seconds around this operation

    @property
    def failed(self) -> bool:
        return bool(self.error or self.check)


def repo_root() -> Path:
    return Path(__file__).resolve().parent.parent


def load_config(name: str) -> LorentzMedium:
    medium, _ = cli.load_medium_config(repo_root() / "scripts" / "configs" / f"{name}.cfg")
    return medium


def wide_medium() -> LorentzMedium:
    return new_medium(1.0, 1.0, WIDE_ELECTRIC, WIDE_MAGNETIC)


def prepare(medium: LorentzMedium) -> str:
    """Catalog and coefficient table, the set-up every workload does per medium."""
    try:
        medium.catalog
        medium.asymptotic_coefficients()
    except LorentzModesError as exc:
        return type(exc).__name__
    return ""


def diagnosed_bands(medium: LorentzMedium, points_per_decade: int) -> tuple[float, float]:
    """(k_minus, k_plus) through the public dispersion API."""
    grid = dispersion.default_k_grid(medium, points_per_decade)
    branches = dispersion.classify_branches(dispersion.track_branches(medium, grid), medium)
    return dispersion.diagnose_bands(branches, medium.asymptotic_coefficients())


def _damping(rng, regime: str, resonance: float) -> float:
    if regime == "underdamped":
        return float(resonance * rng.uniform(0.02, 1.5))
    if regime == "overdamped":
        return float(resonance * rng.uniform(2.0, 4.0))
    if regime == "near_lossless":
        return float(resonance * 10.0 ** rng.uniform(-4.0, -2.0))
    return 0.0


def draw_medium(rng, index: int) -> tuple[LorentzMedium, str, int]:
    """Seeded admissible medium for draw ``index``: (medium, regime, redraws).

    Shapes and damping regimes cycle through fixed lists so every seed gets
    the same mix of N and regimes; the seed picks every coupling, resonance
    and damping.  Only media that ``require_assumptions`` rejects (outside
    the admissible space) are redrawn.  A medium the pipeline later fails on
    stays in the draw and counts as a failed operation.
    """
    n_e, n_m = DRAW_SHAPES[index % len(DRAW_SHAPES)]
    regime = DAMPING_REGIMES[index % len(DAMPING_REGIMES)]
    redraws = 0
    while True:
        def oscillator():
            resonance = float(np.exp(rng.uniform(np.log(0.5), np.log(5.0))))
            return (float(rng.uniform(0.3, 1.5)), resonance, _damping(rng, regime, resonance))

        medium = new_medium(
            1.0, 1.0, [oscillator() for _ in range(n_e)], [oscillator() for _ in range(n_m)]
        )
        try:
            medium.require_assumptions()
        except AssumptionViolated:
            redraws += 1
            continue
        return medium, regime, redraws


def _timed(fn, *args):
    t0, c0 = time.perf_counter(), time.thread_time()
    try:
        work, check = fn(*args)
        error = ""
    except LorentzModesError as exc:
        work, check, error = 0.0, "", type(exc).__name__
    return Outcome(seconds=time.perf_counter() - t0, cpu_seconds=time.thread_time() - c0,
                   work=work, error=error, check=check)


# --- atlas -----------------------------------------------------------------------------


@dataclass
class MediumEntry:
    name: str
    medium: LorentzMedium
    regime: str = "fixed"
    redraws: int = 0  # draws require_assumptions rejected before this one
    setup_error: str = ""
    outcomes: list = field(default_factory=list)

    def record(self) -> dict:
        return {
            "name": self.name,
            "N": self.medium.state_blocks,
            "regime": self.regime,
            "redraws": self.redraws,
            "attempts": len(self.outcomes),
            "outcome": sorted({o.error or o.check or "ok" for o in self.outcomes}),
        }


class Atlas:
    name = "atlas"
    reason = (
        "dispersion and polyroots do almost all the work (>=1201 certified root solves "
        "per medium) and operators, evolution and energy none; N of 6, 8 and 16 (4 to "
        "16 in the traced survey of seeded draws) shows whether per-call overhead or "
        "batching changes scale"
    )
    whole_passes = True

    def __init__(self, seed: int, size: Size = FULL):
        self.size = size
        self.seed = seed
        self.rng = np.random.default_rng([seed, 1])  # pass order, apart from the draws
        self.media = [MediumEntry(name, load_config(name)) for name in CONFIGS]
        self.media.append(MediumEntry("wide", wide_medium()))
        for entry in self.media:
            entry.setup_error = prepare(entry.medium)
        self.pass_length = len(self.media)
        self.order: list = []
        self.draws: list = []

    def run(self, i: int) -> Outcome:
        if i % self.pass_length == 0:
            # each pass tracks every fixed medium once, in a seeded order
            self.order = list(self.rng.permutation(self.pass_length))
        return self._track(self.media[self.order[i % self.pass_length]])

    def survey(self) -> list:
        """Track each seeded draw once; one outcome per draw.

        The draws cover the admissible space (N from 4 to 16 in four damping
        regimes).  Their outcomes are reported, not timed into the loop: the
        library still raises ``BranchCollision`` on some of them (ROADMAP
        item 4), and a loop operation must not fail on a correct library.
        """
        rng = np.random.default_rng(self.seed)
        for i in range(self.size.atlas_draws):
            medium, regime, redraws = draw_medium(rng, i)
            entry = MediumEntry(f"draw{i}", medium, regime, redraws)
            entry.setup_error = prepare(medium)
            self.draws.append(entry)
        return [self._track(entry) for entry in self.draws]

    def _track(self, entry: MediumEntry) -> Outcome:
        if entry.setup_error:
            out = Outcome(seconds=0.0, cpu_seconds=0.0, error=entry.setup_error)
        else:
            out = _timed(self._atlas, entry.medium)
        entry.outcomes.append(out)
        return out

    def _atlas(self, medium):
        grid = dispersion.default_k_grid(medium, self.size.points_per_decade)
        branches = dispersion.classify_branches(
            dispersion.track_branches(medium, grid), medium
        )
        dispersion.diagnose_bands(branches, medium.asymptotic_coefficients())
        return float(len(grid)), check_atlas(branches, medium)

    def inputs(self) -> list:
        return [entry.record() for entry in self.media + self.draws]


def check_atlas(branches, medium) -> str:
    """N labelled branches, one PlusInf/MinusInf pair and one Zero0 pair."""
    if len(branches) != medium.state_blocks:
        return f"{len(branches)} branches for N={medium.state_blocks}"
    if any(b.hf_label is None or b.lf_label is None for b in branches):
        return "unlabelled branch"
    hf = sorted(str(b.hf_label) for b in branches
                if isinstance(b.hf_label, (dispersion.PlusInf, dispersion.MinusInf)))
    if hf != ["MinusInf", "PlusInf"]:
        return f"unbounded branches {hf}"
    zero0 = sorted(b.lf_label.index for b in branches
                   if isinstance(b.lf_label, dispersion.Zero0))
    if zero0 != [1, 2]:
        return f"branches through the origin {zero0}"
    return ""


# --- exponents ---------------------------------------------------------------------------

#: (medium, band, p or m): the paper's exponent table
EXPONENT_TABLE = (
    ("reference", "lf", 0.0),
    ("reference", "lf", 1.0),
    ("reference", "lf", 2.0),
    ("reference", "hf", 2.0),
    ("critical", "hf", 2.0),
    ("wide", "lf", 0.0),
    ("wide", "hf", 2.0),
)


def fixed_media_with_bands(size: Size) -> dict:
    """reference, critical and the N=16 medium, each with its diagnosed bands."""
    media = {"reference": load_config("reference"), "critical": load_config("critical"),
             "wide": wide_medium()}
    out = {}
    for name, medium in media.items():
        error = prepare(medium)
        if error:
            raise RuntimeError(f"fixed medium {name} failed set-up: {error}")
        out[name] = (medium, diagnosed_bands(medium, size.points_per_decade))
    return out


def media_record(media: dict) -> list:
    return [{"name": n, "N": m.state_blocks, "k_minus": b[0], "k_plus": b[1]}
            for n, (m, b) in media.items()]


class Exponents:
    name = "exponents"
    reason = (
        "energy quadrature drives ~384 per-node operator + eigen + propagate "
        "evaluations per run, so spectral_decomposition and propagate dominate; "
        "resolvent and contour paths do nothing"
    )
    whole_passes = True

    def __init__(self, seed: int, size: Size = FULL):
        self.rng = np.random.default_rng(seed)
        self.media = fixed_media_with_bands(size)
        self.table = EXPONENT_TABLE[: size.exponent_runs]
        self.pass_length = len(self.table)
        self.order: list = []
        self.fits: dict = {}

    def run(self, i: int) -> Outcome:
        if i % self.pass_length == 0:
            # each pass runs the whole table in a seeded order
            self.order = list(self.rng.permutation(self.pass_length))
        spec = self.table[self.order[i % self.pass_length]]
        return _timed(self._exponent, *spec)

    def _exponent(self, name, band, param):
        medium, (k_minus, k_plus) = self.media[name]
        if band == "lf":
            report = energy.verify_gamma_lf(medium, param, k_minus=k_minus)
        else:
            report = energy.verify_gamma_hf(medium, param, k_plus=k_plus)
        self.fits[f"{name} {band} {param:g}"] = (report.target, report.fitted)
        if abs(report.fitted - report.target) > FIT_TOLERANCE * report.target:
            return 0.0, f"{name} {band} fitted {report.fitted:.4f} vs {report.target:g}"
        return 1.0, ""

    def inputs(self) -> list:
        return media_record(self.media) + [
            {"run": run, "target": target, "fitted": fitted}
            for run, (target, fitted) in self.fits.items()
        ]


# --- modes -------------------------------------------------------------------------------

BANDS = ("low", "mid", "high")
MODES_T_MAX = 50.0


class Modes:
    name = "modes"
    reason = (
        "single-k operator, eigen, dense-grid propagate, resolvent and contour "
        "projector calls; a change that speeds exponents by bypassing these layers "
        "must show no change here"
    )
    whole_passes = False

    def __init__(self, seed: int, size: Size = FULL):
        self.rng = np.random.default_rng(seed)
        self.media = fixed_media_with_bands(size)
        self.names = list(self.media)
        self.t_grid = np.linspace(0.0, MODES_T_MAX, size.time_samples)
        self.pass_length = len(self.names) * len(BANDS)

    def run(self, i: int) -> Outcome:
        name = self.names[i % len(self.names)]
        band = BANDS[(i // len(self.names)) % len(BANDS)]
        medium, (k_minus, k_plus) = self.media[name]
        lo, hi = {"low": (k_minus / 10.0, k_minus), "mid": (k_minus, k_plus),
                  "high": (k_plus, 10.0 * k_plus)}[band]
        rng = self.rng
        k = float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
        u0 = rng.standard_normal(2 * medium.state_blocks) + 1j * rng.standard_normal(
            2 * medium.state_blocks
        )
        shift = complex(rng.uniform(-1.0, 1.0), rng.uniform(0.1, 1.0))
        pick = rng.random()
        return _timed(self._mode, medium, k, u0, shift, pick)

    def _mode(self, medium, k, u0, shift, pick):
        op = operators.build_perp_operator(medium, k)
        dec = op.eigen
        norms = [op.operator_norm(p) for p in dec.projectors]
        u0 = u0 / op.norm(u0)
        prop = evolution.propagate(op, u0, self.t_grid, keep_states=True)
        scale = 1.0 + float(np.max(np.abs(dec.eigenvalues)))
        # the upper half plane is off the spectrum of a dissipative operator
        omega = shift * scale
        resolvent = operators.resolvent_formula(medium, k, omega)
        j = int(pick * len(dec.eigenvalues))
        contour = operators.projector_contour(medium, k, dec.eigenvalues[j])

        if not np.all(np.isfinite(norms)):
            return 0.0, "projector norm not finite"
        if prop.states is None or prop.states.shape != (len(self.t_grid), op.dim):
            return 0.0, "propagate kept no states"
        if np.any(np.diff(prop.norms) > NORM_INCREASE_TOL):
            return 0.0, f"propagate norm grew by {np.max(np.diff(prop.norms)):.2e}"
        dense = np.linalg.inv(op.matrix - omega * np.eye(op.dim))
        err = np.linalg.norm(resolvent - dense, 2) / np.linalg.norm(dense, 2)
        if err > RESOLVENT_TOL:
            return 0.0, f"resolvent deviates {err:.2e} from the dense inverse"
        err = np.linalg.norm(contour - dec.projectors[j], 2)
        if err > PROJECTOR_TOL:
            return 0.0, f"contour projector deviates {err:.2e} from the eigen projector"
        return 1.0, ""

    def inputs(self) -> list:
        return media_record(self.media)


WORKLOADS = {w.name: w for w in (Atlas, Exponents, Modes)}
