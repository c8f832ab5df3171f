"""Time propagation of per-wavenumber states and band-wise decay envelopes.

The envelope checks evolve one seeded state per k by one stacked u_+ eigendecomposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .dispersion import solve_dispersion
from .errors import BandViolation, NonPositiveRate, NotDiagonalizable
from .medium import Criticality, LorentzMedium
from .operators import PerpOperator, PerpState, _modal_norms


@dataclass
class PropagatorResult:
    k: float
    t_grid: np.ndarray
    norms: np.ndarray  # weighted norms |U(k, t)|
    states: Optional[np.ndarray]  # (len(t_grid), dim) when kept
    method: str  # "Eigen" (projector expansion) or "Oracle" (dense matrix exponential)


def propagate(
    op: PerpOperator,
    initial: PerpState | np.ndarray,
    t_grid: Sequence[float],
    keep_states: bool = True,
) -> PropagatorResult:
    """Evolve the state through exp(-i A t) on the sorted, finite, nonnegative grid.

    The state is expanded over the spectral projectors of ``op.eigen`` (tag
    "Eigen"). Where that decomposition is refused (NotDiagonalizable), the
    same semigroup is the dense matrix exponential, ``scipy.linalg.expm(-i t A)``
    applied to the state one time sample at a time (tag "Oracle": the
    reference the eigen path is tested against).
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if not np.all(np.isfinite(t_grid)) or np.any(np.diff(t_grid) < 0) or np.any(t_grid < 0):
        raise ValueError("t_grid must be finite, sorted and nonnegative")
    u0 = initial.data if isinstance(initial, PerpState) else np.asarray(initial, complex)

    try:
        dec = op.eigen
    except NotDiagonalizable:
        import scipy.linalg

        states = np.empty((len(t_grid), len(u0)), dtype=complex)
        for i, t in enumerate(t_grid):
            states[i] = scipy.linalg.expm(-1j * t * op.matrix) @ u0
        tag = "Oracle"
    else:
        comps = dec.projectors @ u0  # (n_eigs, dim)
        phases = np.exp(-1j * np.outer(t_grid, dec.eigenvalues))  # (nt, n_eigs)
        states = phases @ comps
        tag = "Eigen"

    return PropagatorResult(
        k=op.k,
        t_grid=t_grid,
        norms=op.norm(states),
        states=states if keep_states else None,
        method=tag,
    )


def tail_rate(t: np.ndarray, norms: np.ndarray) -> float:
    """Exponential decay rate from the tail of log-norm against time.

    The fit window starts at the first time the norm halves, which skips the
    non-modal transient of a non-normal operator.
    """
    norms = np.asarray(norms, float)
    below = np.nonzero(norms < 0.5 * norms[0])[0]
    start = int(below[0]) if len(below) else len(norms) // 2
    tt, nn = t[start:], norms[start:]
    # below sqrt(tiny) the weighted norm squares subnormal numbers, so its log is noise
    good = nn > np.sqrt(np.finfo(float).tiny)
    if good.sum() < 3:
        raise BandViolation("norm trace too short or vanished for a rate fit")
    slope = np.polyfit(tt[good], np.log(nn[good]), 1)[0]
    return float(-slope)


@dataclass
class EnvelopeFit:
    band: str  # "HF", "LF" or "Mid"
    exponent: float  # power of k in the rate law (0 for Mid)
    rate_constant: float  # C: per-k rate ~ C * k^(-exponent) or C * k^exponent
    prefactor: float  # smallest admissible envelope constant
    per_k: list  # (k, fitted rate) samples
    residual: float


def _rate_samples(medium, ks, t_grid, seed):
    """(fitted rates, norm traces relative to t = 0) of seeded random states, one per k."""
    draws = np.random.default_rng(seed).standard_normal((len(ks), 2, 2 * medium.state_blocks))
    norms = _modal_norms(medium, ks, draws[:, 0] + 1j * draws[:, 1], t_grid)
    return np.array([tail_rate(t_grid, n) for n in norms]), norms


def _envelope_fit(medium, band, power, k_list, t_grid, seed) -> EnvelopeFit:
    """Fit |U| <= prefactor * exp(-C k^power t) to sampled per-k decay rates."""
    t_grid = np.asarray(t_grid, float)
    ks = np.asarray(k_list, float)
    rates, norms = _rate_samples(medium, ks, t_grid, seed)
    if np.any(rates <= 0):
        side = "high" if power < 0 else "low"
        raise BandViolation(f"nonpositive decay rate in the {side} band")
    c = float(np.min(rates / ks**power))
    env = np.exp(-c * ks[:, None] ** power * t_grid)
    ok = env > 1e-290
    pref = max(1.0, float(np.max(norms[ok] / (norms[:, :1] * env)[ok])))
    resid = float(np.std(np.log(rates / (c * ks**power))))
    return EnvelopeFit(band, abs(power), c, pref, list(zip(ks.tolist(), rates.tolist())), resid)


def hf_envelope_check(
    medium: LorentzMedium,
    k_list: Sequence[float],
    t_grid: Sequence[float],
    seed: int = 0,
) -> EnvelopeFit:
    """Fit the high-band envelope |U| <= prefactor * exp(-C t / k^e).

    e is 2 in the non-critical configuration and 4 in the critical one, per check_assumptions().
    """
    critical = medium.check_assumptions().criticality is Criticality.CRITICAL
    return _envelope_fit(medium, "HF", -4.0 if critical else -2.0, k_list, t_grid, seed)


def lf_envelope_check(
    medium: LorentzMedium,
    k_list: Sequence[float],
    t_grid: Sequence[float],
    seed: int = 0,
) -> EnvelopeFit:
    """Fit the low-band envelope |U| <= prefactor * exp(-C k^2 t)."""
    return _envelope_fit(medium, "LF", 2.0, k_list, t_grid, seed)


def midband_rate(
    medium: LorentzMedium,
    k_band: tuple[float, float],
    samples: int = 20,
    t_grid: Optional[Sequence[float]] = None,
    seed: int = 0,
) -> EnvelopeFit:
    """Uniform exponential rate over the compact band [k_minus, k_plus].

    The reported rate is the minimum fitted per-k rate over the sampled band;
    it must be positive and is cross-checked against the sampled spectral
    abscissa by the caller.
    """
    k_lo, k_hi = k_band
    if k_lo <= 0:
        raise ValueError("mid band must start at a positive wavenumber")
    if samples < 1:
        raise ValueError(f"mid band needs at least 1 sample, got samples={samples}")
    ks = np.geomspace(k_lo, k_hi, samples)
    # slowest modal rate over the sampled band: minus the spectral abscissa
    abscissa = -float(np.max(solve_dispersion(medium, ks).imag))
    if abscissa <= 0:
        raise NonPositiveRate("spectrum reaches the real axis inside the band")
    if t_grid is None:
        # long enough to resolve the slowest expected rate in the band
        t_grid = np.linspace(0.0, 20.0 / abscissa, 400)
    rates, _ = _rate_samples(medium, ks, np.asarray(t_grid, float), seed)
    beta = float(np.min(rates))
    if beta <= 0:
        raise NonPositiveRate(f"fitted mid-band rate {beta:.3e} is not positive")
    resid = abs(beta - abscissa) / abscissa
    return EnvelopeFit("Mid", 0.0, beta, 1.0, list(zip(ks.tolist(), rates.tolist())), resid)
