"""Radial Plancherel quadrature of the total energy, its decay exponent, power-law fits.

The squared norm of the solution is a radial integral of per-wavenumber decay
traces against an initial radial profile.  Composite Gauss-Legendre panels
(log-spaced edges, plain Gauss nodes inside each panel) integrate it; the
number of panels doubles until the energy at the final time settles.  The
first test reads the n-panel rule at the final time alone and the 2n-panel
rule, which it may accept, at every time; one stacked evaluation over both
rules' nodes serves it (a random direction evolves each rule on its own).
Each later rule takes an evaluation of its own.

The optimal data of the exponent runs is a slow-branch eigenvector, whose
trace is exp(2 Im omega(k) t) in closed form.  An evaluation needs only that
branch's root at each node: Newton from the branch's asymptotic anchor, with
a Rouché certificate, taken about the Newton root, that it is the root
nearest the anchor.  A node it leaves unsettled (none in the paper's exponent
table) takes the full root solve, ``solve_dispersion`` at its k.  No operator,
eigendecomposition or propagation is involved.  The accepted rule's
exponent -t E'/E at t_max is exact too: the energy-weighted mean of
-2 Im omega t_max over its nodes.  A random direction takes ``propagate``'s one
u_+/u_- evolution, stacked, without its dense fallback; it has no such exponent.

``verify_gamma_lf`` and ``verify_gamma_hf`` share one exponent run, on the
branch whose decay law exp(-sigma k^p t) is read off the expansion that anchors
the Newton solves (``dispersion._decay_law``): Zero0(1) in the low band, and in
the high band the slowest of PlusInf and the real poles' fans, from an onset
past the wavenumber k_cross where that law overtakes the branch's next lossy
term; the onset sets t_max.  A band edge not given defaults to
``medium.diagnosed_bands``; the hf datum's Sobolev slack is fixed at
SOBOLEV_SLACK, and its share of the exponent is subtracted.  A run's energy
samples come back as a DecayRecord (t_grid, energy, panel count and exponent
of the accepted rule), inside a GammaReport that also names the run (``tag``).
``fit_exponent`` fits a CSV for the CLI, with no record: the closed-form
least-squares slope of log E over centred log t, on samples whose t strictly
increases and whose t and E are finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .dispersion import Zero0, _decay_law, _log_grid, _log_points, _slowest_hf_branch
from .dispersion import _solvable_rows, expansion, solve_dispersion
from .errors import ExponentMismatch, NonPolynomialDecay, QuadratureNonconvergent, WindowTooShort
from .evolution import _time_grid
from .medium import LorentzMedium
from .operators import _ModalRecord, _medium_record
from .polyroots import certified_root_near
# unused here, kept because perfbench/spans.py wraps these three at these names
from .operators import build_perp_operator, eigenvector_columns  # noqa: F401
from .evolution import propagate  # noqa: F401

QUAD_TOL = 1e-6
NODES_PER_PANEL = 32
MAX_PANEL_DOUBLINGS = 8

#: construction slack eps above the sharp Sobolev tail exponent: s = 3/2 + m + eps
SOBOLEV_SLACK = 0.1

#: relative tolerance of a reported exponent against its target
GAMMA_TOL = 0.10

#: earliest time a fit window may start: the asymptotic regime of every exponent run
FIT_T_MIN = 1e2


# --- radial profiles --------------------------------------------------------------


@dataclass(frozen=True)
class RadialProfile:
    """phi(k) supported on [k_min, k_max]; a band not 0 < k_min < k_max < inf raises ValueError."""

    k_min: float
    k_max: float
    shape: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        if not (0 < self.k_min < self.k_max < math.inf):
            raise ValueError("profile band must satisfy 0 < k_min < k_max < inf")

    def __call__(self, k):
        return self.shape(np.asarray(k, dtype=float))


def power_law(p: float, k_min: float, k_max: float) -> RadialProfile:
    """phi(k) = k^p on the band: the low-frequency datum class, for a finite p >= 0."""
    if not 0 <= p < math.inf:
        raise ValueError(f"power-law exponent must be nonnegative and finite, got p={p}")
    return RadialProfile(k_min, k_max, lambda k: k**p)


def sobolev_tail(m: float, s: float, k_min: float, k_max: float) -> RadialProfile:
    """phi(k) = (1+k^2)^(-s/2): a datum of Sobolev regularity m needs s > 3/2 + m."""
    if not s > 1.5 + m:
        raise ValueError(f"need s > 3/2 + m, got s={s}, m={m}")
    return RadialProfile(k_min, k_max, lambda k: (1.0 + k * k) ** (-s / 2.0))


# --- direction rules ---------------------------------------------------------------


@dataclass(frozen=True)
class OptimalBranch:
    """Initial direction: the unit eigenvector of a named slow branch."""

    label: object  # a dispersion branch label (PlusInf, Zero0, Pole, ...)


@dataclass(frozen=True)
class FixedRandomUnit:
    """Initial direction: one seed-determined random state, shared by every k.

    Keeping the direction independent of k makes the radial integrand smooth,
    so the panel-doubling quadrature actually converges; per-node redraws
    would turn the integrand into noise.
    """

    seed: int = 0


def branch_eigenvalue(medium: LorentzMedium, label, k):
    """The dispersion root at k on the labeled branch: the root nearest its asymptotic anchor.

    The anchor is the label's ``expansion`` over the medium's coefficient
    table, for any label.  k must lie in the label's validity band.  A 1-D
    array of k gives one root per k (a scalar k is the one-row stack).  Each
    row runs Newton from its anchor; only the rows whose root is not certified
    as the nearest one go through ``solve_dispersion`` at their k (a scalar
    k = 0 deflates its two origin roots there) and keep its nearest root.
    """
    anchor, _ = expansion(label, medium.asymptotic_coefficients())
    scalar = np.ndim(k) == 0
    rows = _solvable_rows(medium, k)
    ks = np.atleast_1d(np.asarray(k, dtype=float))
    start = anchor(ks)
    roots, settled = certified_root_near(rows, start)
    if not np.all(settled):
        rest = ~settled
        full = np.atleast_2d(solve_dispersion(medium, k if scalar else ks[rest]))
        pick = np.argmin(np.abs(full - start[rest, None]), axis=1)
        roots[rest] = full[np.arange(len(pick)), pick]
    return complex(roots[0]) if scalar else roots


def _propagated_traces(medium, rule: FixedRandomUnit, ks, t_grid) -> np.ndarray:
    """Weighted |exp(-iAt) v|^2 / |v|^2, one stacked evolution over ks, for the shared random v."""
    re, im = np.random.default_rng(rule.seed).standard_normal((2, 2 * medium.state_blocks))
    v, gram = re + 1j * im, _medium_record(medium).gram
    states = _ModalRecord(medium, ks).evolve(v, t_grid)
    return np.sum(gram * np.abs(states) ** 2, axis=-1) / np.sum(gram * np.abs(v) ** 2)


# --- the energy integral -------------------------------------------------------------


@dataclass
class DecayRecord:
    t_grid: np.ndarray
    energy: np.ndarray
    panels: int
    exponent: Optional[float]  # -t E'/E at t_max of a closed-form trace; None when propagated


#: Gauss-Legendre nodes and weights on [-1, 1], shared by every panel rule
_LEGENDRE_X, _LEGENDRE_W = np.polynomial.legendre.leggauss(NODES_PER_PANEL)
_LEGENDRE_X.flags.writeable = _LEGENDRE_W.flags.writeable = False


def gauss_panels(k_min: float, k_max: float, n_panels: int):
    """Nodes and weights: log-spaced panel edges, NODES_PER_PANEL Gauss-Legendre nodes in each."""
    edges = _log_points(k_min, k_max, n_panels + 1)[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = half * _LEGENDRE_X + 0.5 * (edges[:-1] + edges[1:])
    return nodes.ravel(), (half * _LEGENDRE_W).ravel()


def simulate_energy(
    medium: LorentzMedium,
    profile: RadialProfile,
    direction_rule,
    t_grid: Sequence[float],
) -> DecayRecord:
    """E(t) = 4*pi * integral of k^2 phi(k)^2 |exp(-iAt) v(k)|^2 over the band.

    Panels double from one per decade of the band until the final-time
    energies of two successive rules agree to QUAD_TOL; the first two rules
    (n and 2n panels) share one stacked call, the n-panel rule read at t_max
    alone, and each later rule takes one call of its own.  An OptimalBranch
    datum is an eigenvector, so its trace is the closed form
    exp(2 Im omega(k) t), from one stacked ``branch_eigenvalue`` per call, and
    the record's exponent is the accepted rule's -t E'/E at t_max.  A
    FixedRandomUnit datum evolves by one stacked ``_ModalRecord.evolve`` per
    rule, and its record has no exponent (None).  A t_grid that ``propagate``
    refuses, or an empty one, raises ValueError before any evaluation.
    """
    t_grid = _time_grid(t_grid)
    if not t_grid.size:
        raise ValueError("t_grid must hold at least one time")
    if isinstance(direction_rule, OptimalBranch):

        def rule_traces(ks, n_coarse):
            rate = 2.0 * branch_eigenvalue(medium, direction_rule.label, ks).imag
            return (np.exp(np.multiply.outer(rate[:n_coarse], t_grid[-1:])),
                    np.exp(np.multiply.outer(rate[n_coarse:], t_grid)), rate[n_coarse:])

    elif isinstance(direction_rule, FixedRandomUnit):

        def rule_traces(ks, n_coarse):
            return (_propagated_traces(medium, direction_rule, ks[:n_coarse], t_grid[-1:]),
                    _propagated_traces(medium, direction_rule, ks[n_coarse:], t_grid), None)

    else:
        raise ValueError(f"unknown direction rule {direction_rule!r}")

    def rule_energies(n_panels, coarse_panels=0):
        """E(t_max) of the coarse rule (none for 0 panels), E(t) and -t E'/E(t_max) of the n-panel rule.

        One rule_traces call covers both rules' nodes; the first n_coarse
        traces, the coarse rule's, are read at t_max alone.
        """
        counts = (coarse_panels, n_panels) if coarse_panels else (n_panels,)
        rules = [gauss_panels(profile.k_min, profile.k_max, n) for n in counts]
        ks, ws = (np.concatenate(part) for part in zip(*rules))
        n_coarse = len(ks) - len(rules[-1][0])
        weights = np.split(ws * ks**2 * profile(ks) ** 2, [n_coarse])
        *traces, rate = rule_traces(ks, n_coarse)
        coarse, energy = (4.0 * math.pi * np.einsum("i,ij->j", w, tr) for w, tr in zip(weights, traces))
        if rate is None:
            return coarse, energy, None
        e_prime = 4.0 * math.pi * float((weights[1] * rate) @ traces[1][:, -1])  # E'(t_max)
        return coarse, energy, -t_grid[-1] * e_prime / energy[-1] if energy[-1] else math.nan

    decades = max(math.log10(profile.k_max / profile.k_min), 0.3)
    n_panels = max(1, int(math.ceil(decades)))
    # the first test needs the n-panel rule at t_max and the 2n-panel rule: one call for both
    coarse, energy, exponent = rule_energies(2 * n_panels, n_panels)
    for doubling in range(MAX_PANEL_DOUBLINGS):
        n_panels *= 2
        if doubling:
            coarse, (_, energy, exponent) = energy, rule_energies(n_panels)
        ref = float(coarse[-1])
        if abs(float(energy[-1]) - ref) <= QUAD_TOL * abs(ref):
            return DecayRecord(t_grid, energy, n_panels, exponent)
    raise QuadratureNonconvergent(f"energy quadrature not settled after {n_panels} panels")


# --- exponent fitting ----------------------------------------------------------------


def fit_exponent(t_grid: np.ndarray, energy: np.ndarray, window: tuple[float, float]):
    """Least-squares power-law exponent of the energy samples E(t) on the time window.

    Returns (gamma, confidence): gamma is minus the least-squares slope of
    log E against log t, in closed form over centred log t, and the confidence
    is the largest deviation of local two-point slopes from that slope.  A
    window starting below FIT_T_MIN, a t anywhere in t_grid that is not
    finite, a sample inside the window whose energy is not finite or whose t
    does not increase past the one before it (the first such sample is
    named), fewer than 3 samples inside it, or a nonpositive energy there
    raises WindowTooShort; monotone local-slope drift beyond 0.3 means the
    decay is not a power law (NonPolynomialDecay).
    """
    t_lo, t_hi = window
    if t_lo < FIT_T_MIN * (1 - 1e-12):
        raise WindowTooShort("fit window must start inside the asymptotic regime")
    (inside,) = np.nonzero(~np.isfinite(t_grid) | ((t_grid >= t_lo) & (t_grid <= t_hi)))
    t, e = t_grid[inside], energy[inside]
    finite = np.isfinite(t) & np.isfinite(e)
    fits = finite & np.append(True, t[1:] > t[:-1])
    if not np.all(fits):
        i = int(np.argmin(fits))
        why = "is not finite" if not finite[i] else f"does not increase past t={t[i - 1]:g}"
        where = " inside the fit window" if np.isfinite(t[i]) else ""
        raise WindowTooShort(f"sample {inside[i]} (t={t[i]:g}, energy={e[i]:g}){where} {why}")
    if len(t) < 3:
        raise WindowTooShort(f"only {len(t)} samples inside {window}")
    if np.any(e <= 0):
        raise WindowTooShort("energy vanished inside the fit window")
    logt, loge = np.log(t), np.log(e)
    x = logt - logt.mean()
    slope = (x @ (loge - loge.mean())) / (x @ x)
    local = np.diff(loge) / np.diff(logt)
    drift = local[-1] - local[0]
    monotone = np.all(np.diff(local) >= -1e-12) or np.all(np.diff(local) <= 1e-12)
    if monotone and abs(drift) > 0.3:
        raise NonPolynomialDecay(
            f"local slopes drift monotonically by {drift:.3f}; not a power law"
        )
    return float(-slope), float(np.max(np.abs(local - slope)))


# --- exponent verification -------------------------------------------------------------


@dataclass
class GammaReport:
    target: float
    fitted: float  # the record's exponent less the datum's Sobolev slack
    record: DecayRecord
    tag: str  # the run: lf(p=...) or hf(m=...,critical|non-critical)

    @property
    def ok(self) -> bool:
        return abs(self.fitted - self.target) <= GAMMA_TOL * self.target

    def text(self) -> str:
        status = "ok" if self.ok else "MISMATCH"
        return (
            f"tag={self.tag} fitted_gamma={self.fitted:.4f} "
            f"target={self.target:.4f} tol={GAMMA_TOL:.0%} "
            f"t_max={self.record.t_grid[-1]:g} {status}\n"
            "note: the exponent -t E'/E at t_max certifies the constructed optimal family "
            "up to that tolerance; the theorem supremum is over all admissible data."
        )


def _given_band_edge(name: str, edge: Optional[float]) -> None:
    """Refuse a band edge given outside (0, inf), naming it, in its profile's words."""
    if edge is not None and not 0 < edge < math.inf:
        raise ValueError(f"{name}={edge}: profile band must satisfy 0 < k_min < k_max < inf")


def _exponent_run(medium, label, t_onset, profile_at, target, tag, slack=0.0) -> GammaReport:
    """The ``label`` branch datum's exponent -t E'/E at t_max, less its ``slack``, against target.

    The run lasts t_max = max(1e4, 100 t_onset) on a log time grid from t = 1,
    20 times per decade; the profile is built for that t_max.  An exponent off
    the target by more than GAMMA_TOL raises ExponentMismatch with the report text.
    """
    t_max = max(1e4, 100.0 * t_onset)
    t_grid = _log_grid(1.0, t_max, 20)
    record = simulate_energy(medium, profile_at(t_max), OptimalBranch(label), t_grid)
    out = GammaReport(target, record.exponent - slack, record, tag)
    if not out.ok:
        raise ExponentMismatch(out.text())
    return out


def verify_gamma_hf(
    medium: LorentzMedium,
    m: float,
    k_plus: Optional[float] = None,
) -> GammaReport:
    """Reproduce the optimal high-frequency exponent -2m/p: m, or m/2 when critical.

    The initial datum follows the optimality construction: the eigenvector of
    the slowest high-band branch, decaying like exp(-sigma k^p t), under the
    sharpest admissible Sobolev tail for class m (exponent 3/4 + m/2 + eps/2 with
    eps = SOBOLEV_SLACK, so the datum's exponent is -2(m + eps)/p, reported less
    its slack -2 eps/p).  An m or a given k_plus outside (0, inf) raises ValueError.
    """
    if not 0 < m < math.inf:
        raise ValueError(f"the Sobolev class m must be finite and positive, got m={m}")
    _given_band_edge("k_plus", k_plus)
    label, (sigma, p, k_cross) = _slowest_hf_branch(medium)
    if sigma == 0:
        raise ExponentMismatch(f"no dissipation reaches the high band on {label}")
    if k_plus is None:
        k_plus = medium.diagnosed_bands[1]

    def profile_at(t_max):
        k_star = (sigma * t_max) ** (-1.0 / p)
        return sobolev_tail(m, 1.5 + m + SOBOLEV_SLACK, k_plus, 30.0 * k_star)

    # the dominant wavenumber (sigma*t)^(-1/p) must sit deep inside the band, past k_cross
    t_onset = (8.0 * max(k_plus, k_cross)) ** -p / sigma
    tag = f"hf(m={m:g},{'critical' if p == -4 else 'non-critical'})"  # the critical law is k^-4
    try:
        target, slack = -2.0 * m / p, -2.0 * SOBOLEV_SLACK / p
        return _exponent_run(medium, label, t_onset, profile_at, target, tag, slack)
    except QuadratureNonconvergent as err:
        where = f"k_cross={k_cross:g} (t_onset={t_onset:g})"
        raise QuadratureNonconvergent(f"{err} on the hf branch {label}, {where}") from err


def verify_gamma_lf(
    medium: LorentzMedium,
    p: float,
    k_minus: Optional[float] = None,
) -> GammaReport:
    """Reproduce the optimal low-frequency exponent p + 3/2; a k_minus given is checked first."""
    _given_band_edge("k_minus", k_minus)
    sigma = _decay_law(Zero0(1), medium.asymptotic_coefficients())[0]
    if sigma == 0:
        raise ExponentMismatch("no dissipation reaches the low band")
    if k_minus is None:
        k_minus = medium.diagnosed_bands[0]

    def profile_at(t_max):
        return power_law(p, math.sqrt(1.0 / (sigma * t_max)) / 20.0, k_minus)

    t_onset = 30.0 / (sigma * k_minus**2)
    return _exponent_run(medium, Zero0(1), t_onset, profile_at, p + 1.5, f"lf(p={p:g})")


def convergence_to_zero(medium: LorentzMedium, t_list: Sequence[float]) -> DecayRecord:
    """Full-band energy run demonstrating monotone decay toward zero.

    A flat profile on (k_minus/10, 10 k_plus) of the diagnosed bands, from the
    random direction of seed 0.
    """
    k_minus, k_plus = medium.diagnosed_bands
    profile = power_law(0.0, k_minus / 10.0, 10.0 * k_plus)
    return simulate_energy(medium, profile, FixedRandomUnit(0), np.asarray(t_list, float))
