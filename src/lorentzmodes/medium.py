"""Generalized Lorentz media: material functions, pole/zero structure, classification.

A medium is a pair of rational Herglotz material functions built from damped
oscillators.  This module evaluates them, catalogs the poles and zeros of the
product function omega^2 * eps(omega) * mu(omega) with multiplicities and
leading residues, validates the structural assumptions, and produces the
asymptotic coefficient table that the dispersion-branch machinery checks
against.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np
from numpy.polynomial.polynomial import polyval

from .errors import (
    AssumptionViolated,
    DuplicateOscillator,
    EmptyMedium,
    EvaluationAtPole,
    NonPositiveCoefficient,
    UnresolvedClustering,
)
from .polyroots import companion_roots

#: exact-coincidence tolerance for structural tests (shared resonances, H1/H2)
COINCIDENCE_TOL = 1e-9

#: roots closer than this (scaled) must be explained structurally or rejected
CLUSTER_TOL = 1e-7

#: minimum scaled distance to a pole for rational evaluation
POLE_EVAL_TOL = 1e-12


@dataclass(frozen=True)
class Oscillator:
    """One damped resonance: coupling strength, resonance frequency, damping."""

    coupling: float
    resonance: float
    damping: float

    def __post_init__(self):
        if self.coupling <= 0 or self.resonance <= 0:
            raise NonPositiveCoefficient(
                f"coupling and resonance must be positive, got {self}"
            )
        if self.damping < 0:
            raise NonPositiveCoefficient(f"damping must be nonnegative, got {self}")

    def q(self, omega):
        """The quadratic omega^2 + i*damping*omega - resonance^2."""
        return omega * omega + 1j * self.damping * omega - self.resonance**2

    def q_prime(self, omega):
        return 2.0 * omega + 1j * self.damping

    def roots(self) -> tuple[complex, complex]:
        """Both roots of q, closed form.

        Lies on the real axis iff damping == 0, on the negative imaginary
        axis iff damping >= 2*resonance.
        """
        a, w = self.damping, self.resonance
        disc = w * w - 0.25 * a * a
        if disc >= 0.0:
            s = math.sqrt(disc)
            return (complex(s, -0.5 * a), complex(-s, -0.5 * a))
        s = math.sqrt(-disc)
        return (complex(0.0, -0.5 * a + s), complex(0.0, -0.5 * a - s))


class PoleClass(enum.Enum):
    MINUS = "Pminus"  # strictly below the real axis
    SIMPLE_REAL = "Ps"
    DOUBLE_REAL = "Pd"


class ZeroClass(enum.Enum):
    MINUS = "Zminus"
    SIMPLE_REAL = "Zs"
    ORIGIN = "Origin"


@dataclass(frozen=True)
class PoleEntry:
    location: complex
    multiplicity: int
    klass: PoleClass
    residue: complex  # limit of (omega - p)^m * D(omega)


@dataclass(frozen=True)
class ZeroEntry:
    location: complex
    multiplicity: int
    klass: ZeroClass
    residue: complex  # limit of D(omega) / (omega - z)^m


@dataclass(frozen=True)
class PoleZeroCatalog:
    poles: tuple[PoleEntry, ...]
    zeros: tuple[ZeroEntry, ...]

    @property
    def origin(self) -> ZeroEntry:
        return next(z for z in self.zeros if z.klass is ZeroClass.ORIGIN)

    def real_poles(self) -> list[PoleEntry]:
        return [p for p in self.poles if p.klass is not PoleClass.MINUS]

    def simple_real_zeros(self) -> list[ZeroEntry]:
        return [z for z in self.zeros if z.klass is ZeroClass.SIMPLE_REAL]

    def nearest_pole(self, omega: complex) -> PoleEntry:
        return min(self.poles, key=lambda p: abs(p.location - omega))

    def nearest_zero(self, omega: complex) -> ZeroEntry:
        return min(self.zeros, key=lambda z: abs(z.location - omega))


class Dissipation(enum.Enum):
    NONE = "None"
    WEAK = "Weak"
    STRONG = "Strong"


class Criticality(enum.Enum):
    CRITICAL = "Critical"
    NON_CRITICAL = "NonCritical"


@dataclass(frozen=True)
class ConfigurationReport:
    dissipation: Dissipation
    criticality: Criticality
    critical_condition: Optional[int]  # 1 or 2 when critical
    h1_satisfied: bool
    h2_satisfied: bool
    h1_witness: Optional[tuple] = None
    h2_witness: Optional[tuple] = None

    def summary(self) -> str:
        diss = self.dissipation.value
        if self.criticality is Criticality.CRITICAL:
            crit = f"Critical (condition {self.critical_condition})"
        else:
            crit = "NonCritical"
        return f"{diss}, {crit}"


@dataclass(frozen=True)
class SimplePoleCoefficients:
    """Branch behaviour p + second_order/k^2 + fourth_order/k^4 near a simple real pole."""

    pole: complex
    second_order: complex
    fourth_order: complex


@dataclass(frozen=True)
class DoublePoleCoefficients:
    """Two branches p -+ split/k + second_order/k^2 near a shared real pole."""

    pole: complex
    split: float
    second_order: complex


@dataclass(frozen=True)
class ZeroCoefficients:
    """Branch behaviour z + curvature * k^2 near a simple real zero."""

    zero: complex
    curvature: complex


@dataclass(frozen=True)
class CoefficientTable:
    """All asymptotic branch coefficients derivable in closed form.

    vacuum_speed:     1/sqrt(eps0*mu0), slope of the two unbounded branches
    total_coupling:   sum of all squared couplings (real part correction at
                      order 1/k of the unbounded branches)
    damped_coupling:  damping-weighted squared couplings (imaginary part at
                      order 1/k^2 of the unbounded branches)
    static_speed:     1/sqrt(eps(0)*mu(0)), slope of the two branches through 0
    epsmu_prime0:     (eps*mu)'(0), purely imaginary with negative
                      -Im under weak dissipation
    lf_second_order:  k^2 coefficient of the branches through 0
    """

    vacuum_speed: float
    total_coupling: float
    damped_coupling: float
    static_speed: float
    epsmu_prime0: complex
    lf_second_order: complex
    simple_poles: tuple[SimplePoleCoefficients, ...]
    double_poles: tuple[DoublePoleCoefficients, ...]
    simple_zeros: tuple[ZeroCoefficients, ...]

    def for_pole(self, p: complex):
        for entry in self.simple_poles + self.double_poles:
            if abs(entry.pole - p) <= COINCIDENCE_TOL * (1.0 + abs(p)):
                return entry
        raise KeyError(f"no asymptotic coefficients for pole {p}")

    def for_zero(self, z: complex) -> ZeroCoefficients:
        for entry in self.simple_zeros:
            if abs(entry.zero - z) <= COINCIDENCE_TOL * (1.0 + abs(z)):
                return entry
        raise KeyError(f"no asymptotic coefficients for zero {z}")


def _check_oscillators(name: str, oscillators: Sequence[Oscillator]):
    for i in range(len(oscillators)):
        for j in range(i + 1, len(oscillators)):
            a, b = oscillators[i], oscillators[j]
            if a.damping == b.damping and a.resonance == b.resonance:
                raise DuplicateOscillator(
                    f"{name} oscillators {i} and {j} share (damping, resonance)"
                )


@dataclass(frozen=True)
class LorentzMedium:
    """A generalized Lorentz medium with validated coefficients."""

    eps0: float
    mu0: float
    electric: tuple[Oscillator, ...]
    magnetic: tuple[Oscillator, ...]

    def __post_init__(self):
        if self.eps0 <= 0 or self.mu0 <= 0:
            raise NonPositiveCoefficient("eps0 and mu0 must be positive")
        object.__setattr__(self, "electric", tuple(self.electric))
        object.__setattr__(self, "magnetic", tuple(self.magnetic))
        if len(self.electric) + len(self.magnetic) < 1:
            raise EmptyMedium("need at least one oscillator")
        _check_oscillators("electric", self.electric)
        _check_oscillators("magnetic", self.magnetic)

    # --- sizes ---------------------------------------------------------------

    @property
    def n_electric(self) -> int:
        return len(self.electric)

    @property
    def n_magnetic(self) -> int:
        return len(self.magnetic)

    @property
    def state_blocks(self) -> int:
        """N = 2 + 2*Ne + 2*Nm, the number of 3-vector blocks of a state."""
        return 2 + 2 * self.n_electric + 2 * self.n_magnetic

    # --- material functions ---------------------------------------------------

    def _family(self, name):
        """(eps0 or mu0, oscillators) of the electric ("e") or magnetic ("m") family."""
        return (self.eps0, self.electric) if name == "e" else (self.mu0, self.magnetic)

    def permittivity(self, omega):
        """eps(omega) = eps0 * (1 - sum coupling^2 / q_e(omega))."""
        return _material(omega, *self._family("e"))

    def permeability(self, omega):
        """mu(omega), same structure as the permittivity."""
        return _material(omega, *self._family("m"))

    def dispersion_value(self, omega):
        """omega^2 * eps(omega) * mu(omega)."""
        return omega * omega * self.permittivity(omega) * self.permeability(omega)

    def permittivity_prime(self, omega):
        """d/domega of the permittivity, closed form."""
        return _material_prime(omega, *self._family("e"))

    def permeability_prime(self, omega):
        return _material_prime(omega, *self._family("m"))

    # --- polynomial representation ---------------------------------------------

    @cached_property
    def family_polynomials(self):
        """(P_e, Q_e, P_m, Q_m) as ascending monic coefficient arrays.

        Q is the product of the oscillator quadratics; P is Q minus the
        coupling-weighted deleted products, so eps = eps0 * P_e / Q_e.
        """
        return (*_family_pair(self.electric), *_family_pair(self.magnetic))

    @cached_property
    def family_zeros(self) -> tuple[np.ndarray, np.ndarray]:
        """(zeros of P_e, zeros of P_m), each empty when its family is.

        Each sorted by descending real, then imaginary part, and computed once
        per medium; the H2 check, the zero catalog, the coefficient table and
        the resolvent's singular set all read them.
        """
        p_e, _, p_m, _ = self.family_polynomials
        return tuple(
            np.sort_complex(companion_roots(poly))[::-1] if oscillators else np.zeros(0, complex)
            for poly, oscillators in ((p_e, self.electric), (p_m, self.magnetic))
        )

    def numerator_denominator(self) -> tuple[np.ndarray, np.ndarray]:
        """Ascending (numerator, denominator) coefficients of the dispersion function.

        numerator = eps0*mu0 * omega^2 * P_e * P_m (degree N), denominator =
        Q_e * Q_m (degree 2*(Ne+Nm)); their ratio equals dispersion_value
        everywhere off the poles.  Built once per medium; both are read-only.
        """
        return self._numerator_denominator

    @cached_property
    def _numerator_denominator(self) -> tuple[np.ndarray, np.ndarray]:
        p_e, q_e, p_m, q_m = self.family_polynomials
        num = self.eps0 * self.mu0 * np.polynomial.polynomial.polymul(
            np.array([0.0, 0.0, 1.0], dtype=complex),
            np.polynomial.polynomial.polymul(p_e, p_m),
        )
        den = np.polynomial.polynomial.polymul(q_e, q_m)
        num.flags.writeable = den.flags.writeable = False
        return num, den

    # --- structural assumptions -----------------------------------------------

    def _h1_witness(self):
        for name, fam in (("electric", self.electric), ("magnetic", self.magnetic)):
            for i in range(len(fam)):
                for j in range(i + 1, len(fam)):
                    for ri in fam[i].roots():
                        for rj in fam[j].roots():
                            if abs(ri - rj) <= COINCIDENCE_TOL * (1.0 + abs(ri)):
                                return (name, i, j, ri)
        return None

    def _h2_witness(self):
        zeros_e, zeros_m = self.family_zeros
        poles_e = [r for osc in self.electric for r in osc.roots()]
        poles_m = [r for osc in self.magnetic for r in osc.roots()]
        for z in zeros_e:
            for p in poles_m:
                if abs(z - p) <= COINCIDENCE_TOL * (1.0 + abs(p)):
                    return ("eps-zero is mu-pole", z)
        for z in zeros_m:
            for p in poles_e:
                if abs(z - p) <= COINCIDENCE_TOL * (1.0 + abs(p)):
                    return ("mu-zero is eps-pole", z)
        return None

    def check_assumptions(self) -> ConfigurationReport:
        """Dissipation class, criticality, and the H1/H2 structural checks."""
        h1 = self._h1_witness()
        h2 = self._h2_witness()

        alphas_e = [o.damping for o in self.electric]
        alphas_m = [o.damping for o in self.magnetic]
        total = sum(alphas_e) + sum(alphas_m)
        all_positive = all(a > 0 for a in alphas_e) and all(a > 0 for a in alphas_m)
        if total == 0:
            dissipation = Dissipation.NONE
        elif all_positive:
            dissipation = Dissipation.STRONG
        else:
            dissipation = Dissipation.WEAK

        criticality = Criticality.NON_CRITICAL
        condition = None
        if dissipation is not Dissipation.NONE:
            res_m = [o.resonance for o in self.magnetic]
            res_e = [o.resonance for o in self.electric]
            if all(a == 0 for a in alphas_m) and any(
                o.damping == 0 and not _near_any(o.resonance, res_m)
                for o in self.electric
            ):
                criticality, condition = Criticality.CRITICAL, 1
            elif all(a == 0 for a in alphas_e) and any(
                o.damping == 0 and not _near_any(o.resonance, res_e)
                for o in self.magnetic
            ):
                criticality, condition = Criticality.CRITICAL, 2

        return ConfigurationReport(
            dissipation=dissipation,
            criticality=criticality,
            critical_condition=condition,
            h1_satisfied=h1 is None,
            h2_satisfied=h2 is None,
            h1_witness=h1,
            h2_witness=h2,
        )

    def require_assumptions(self):
        report = self.check_assumptions()
        if not report.h1_satisfied:
            raise AssumptionViolated("H1", report.h1_witness)
        if not report.h2_satisfied:
            raise AssumptionViolated("H2", report.h2_witness)
        return report

    # --- pole/zero catalog -------------------------------------------------------

    @cached_property
    def catalog(self) -> PoleZeroCatalog:
        """Poles and zeros of the dispersion function with multiplicities.

        Requires H1 and H2.  Pole locations are exact (closed-form quadratic
        roots); zero locations come from the companion-matrix solver.  Roots
        are merged into multiple roots only when the oscillator structure
        predicts the multiplicity.
        """
        self.require_assumptions()
        pole_entries = self._catalog_poles()
        zero_entries = self._catalog_zeros()
        return PoleZeroCatalog(poles=tuple(pole_entries), zeros=tuple(zero_entries))

    @cached_property
    def diagnosed_bands(self) -> tuple[float, float]:
        """(k_minus, k_plus) from the branches tracked on the default k grid.

        Cached on the instance, so the tracking runs once per medium and the
        result is dropped with it.
        """
        from .dispersion import classify_branches, default_k_grid, diagnose_bands, track_branches

        branches = classify_branches(track_branches(self, default_k_grid(self)), self)
        return diagnose_bands(branches, self.asymptotic_coefficients())

    def _all_pole_roots(self):
        roots = []
        for osc in self.electric:
            roots.extend((r, "e") for r in osc.roots())
        for osc in self.magnetic:
            roots.extend((r, "m") for r in osc.roots())
        return roots

    def _catalog_poles(self):
        tagged = self._all_pole_roots()
        groups = _merge_close([r for r, _ in tagged], COINCIDENCE_TOL)
        entries = []
        for rep, members in groups:
            mult = len(members)
            if mult > 1:
                # only shared exact resonances (or an exactly repeated root of
                # one quadratic) justify a multiple pole
                fams = {tagged[i][1] for i in members}
                if mult > 4 or (mult > 2 and len(fams) == 1):
                    raise UnresolvedClustering(
                        f"{mult} pole roots cluster at {rep} without structure"
                    )
            if abs(rep.imag) <= COINCIDENCE_TOL * (1.0 + abs(rep)):
                rep = complex(rep.real, 0.0)
                klass = PoleClass.SIMPLE_REAL if mult == 1 else PoleClass.DOUBLE_REAL
            else:
                klass = PoleClass.MINUS
            entries.append((rep, mult, klass))

        all_roots = [r for r, _ in tagged]
        out = []
        for rep, mult, klass in entries:
            out.append(
                PoleEntry(
                    location=rep,
                    multiplicity=mult,
                    klass=klass,
                    residue=self._pole_residue(rep, mult, all_roots),
                )
            )
        return out

    def _pole_residue(self, p, mult, all_pole_roots):
        """lim (omega-p)^mult * D(omega) via the factored denominator."""
        p_e, _, p_m, _ = self.family_polynomials
        num = self.eps0 * self.mu0 * p * p * polyval(p, p_e) * polyval(p, p_m)
        den = 1.0 + 0.0j
        skipped = 0
        for r in sorted(all_pole_roots, key=lambda r: abs(r - p)):
            if skipped < mult and abs(r - p) <= CLUSTER_TOL * (1.0 + abs(p)):
                skipped += 1
                continue
            den *= p - r
        return num / den

    def _family_zero_roots(self):
        """Zeros of eps and of mu, classified structurally as real or not."""
        out = []
        families = (self.electric, self.magnetic)
        for fam, zeros, oscillators in zip("em", self.family_zeros, families):
            undamped = all(o.damping == 0 for o in oscillators)
            for z in zeros:
                if undamped:
                    # real rational function: every zero is real
                    if abs(z.imag) > 1e-8 * (1.0 + abs(z)):
                        raise UnresolvedClustering(
                            f"undamped family produced non-real zero {z}"
                        )
                    z = complex(z.real, 0.0)
                out.append((z, fam, undamped))
        return out

    def _catalog_zeros(self):
        tagged = self._family_zero_roots()
        locations = [z for z, _, _ in tagged]
        for rep, members in _merge_close(locations, CLUSTER_TOL):
            if len(members) > 1:
                raise UnresolvedClustering(
                    f"{len(members)} zeros cluster at {rep}; no structural multiplicity"
                )
            if abs(rep) <= CLUSTER_TOL:
                raise UnresolvedClustering(f"zero {rep} clusters with the origin")

        entries = [
            ZeroEntry(
                location=0.0 + 0.0j,
                multiplicity=2,
                klass=ZeroClass.ORIGIN,
                residue=self._zero_residue(0.0 + 0.0j, 2, locations),
            )
        ]
        for z, _, undamped in tagged:
            klass = ZeroClass.SIMPLE_REAL if undamped else ZeroClass.MINUS
            entries.append(
                ZeroEntry(
                    location=z,
                    multiplicity=1,
                    klass=klass,
                    residue=self._zero_residue(z, 1, locations),
                )
            )
        return entries

    def _zero_residue(self, z, mult, all_zero_roots):
        """lim D(omega) / (omega-z)^mult via the factored numerator."""
        _, q_e, _, q_m = self.family_polynomials
        num = self.eps0 * self.mu0
        if abs(z) > CLUSTER_TOL:
            num *= z * z  # the omega^2 factor survives away from the origin
        skipped = 2 if abs(z) <= CLUSTER_TOL else 0  # origin uses up omega^2
        left = mult - skipped
        for r in sorted(all_zero_roots, key=lambda r: abs(r - z)):
            if left > 0 and abs(r - z) <= CLUSTER_TOL * (1.0 + abs(z)):
                left -= 1
                continue
            num *= z - r
        return num / (polyval(z, q_e) * polyval(z, q_m))

    # --- asymptotic coefficients ---------------------------------------------------

    def _transverse_residual(self, p, family):
        """h(omega) = (omega - p) * (eps or mu) at omega = p, plus h'(p).

        p must be a real root of exactly one oscillator of the family; the
        removable singularity is cancelled in closed form.
        """
        base, oscillators = self._family(family)
        idx = None
        for j, osc in enumerate(oscillators):
            if osc.damping == 0 and abs(abs(p.real) - osc.resonance) <= COINCIDENCE_TOL:
                idx = j
                break
        if idx is None:
            raise AssumptionViolated("structure", f"{p} is not an undamped {family}-pole")
        osc = oscillators[idx]
        other_root = -p  # q = (omega-p)(omega+p) for an undamped oscillator
        rest = sum(
            o.coupling**2 / o.q(p) for j, o in enumerate(oscillators) if j != idx
        )
        h = -base * osc.coupling**2 / (p - other_root)
        h_prime = base * (1.0 - rest + osc.coupling**2 / (p - other_root) ** 2)
        return h, h_prime, osc

    def asymptotic_coefficients(self) -> CoefficientTable:
        """Closed-form coefficients of every slowly-decaying branch family.

        Built once per medium and dropped with it (see ``_coefficient_table``).
        """
        return self._coefficient_table

    @cached_property
    def _coefficient_table(self) -> CoefficientTable:
        catalog = self.catalog
        c = 1.0 / math.sqrt(self.eps0 * self.mu0)
        total = sum(o.coupling**2 for o in self.electric) + sum(
            o.coupling**2 for o in self.magnetic
        )
        damped = sum(o.damping * o.coupling**2 for o in self.electric) + sum(
            o.damping * o.coupling**2 for o in self.magnetic
        )
        eps0v = self.permittivity(0.0)
        mu0v = self.permeability(0.0)
        c0 = 1.0 / math.sqrt(float(eps0v.real) * float(mu0v.real))
        epsmu_prime0 = (
            self.permittivity_prime(0.0) * mu0v + eps0v * self.permeability_prime(0.0)
        )
        lf_second = -0.5 * epsmu_prime0 * c0**4

        simple, double = [], []
        for entry in catalog.real_poles():
            p = entry.location
            if entry.klass is PoleClass.SIMPLE_REAL:
                # the pole's own family gives h; the other family's material
                # function enters as a regular factor
                own, other = ("e", "m") if self._is_pole_of(p, self.electric) else ("m", "e")
                h, h_p, osc = self._transverse_residual(p, own)
                base, fam = self._family(own)[0], self._family(other)
                g, g_p = _material(p, *fam), _material_prime(p, *fam)
                a2 = -0.5 * base * p * g * osc.coupling**2
                f = p * p * g * h
                f_prime = 2 * p * g * h + p * p * (g_p * h + g * h_p)
                a4 = f * f_prime
                simple.append(SimplePoleCoefficients(p, a2, a4))
            else:
                h_e, h_e_p, osc_e = self._transverse_residual(p, "e")
                h_m, h_m_p, osc_m = self._transverse_residual(p, "m")
                split = osc_e.coupling * osc_m.coupling / (2.0 * c)
                a2 = 0.5 * (
                    2 * p * h_e * h_m + p * p * (h_e_p * h_m + h_e * h_m_p)
                )
                double.append(DoublePoleCoefficients(p, split, a2))

        zeros = []
        zeros_e = self.family_zeros[0]
        for entry in catalog.simple_real_zeros():
            z = entry.location
            is_eps_zero = bool(
                len(zeros_e) and np.min(np.abs(zeros_e - z)) <= CLUSTER_TOL * (1 + abs(z))
            )
            own, other = map(self._family, ("e", "m") if is_eps_zero else ("m", "e"))
            w_prime = _material(z, *own) + z * _material_prime(z, *own)
            a_z = 1.0 / (z * _material(z, *other) * w_prime)
            zeros.append(ZeroCoefficients(z, a_z))

        return CoefficientTable(
            vacuum_speed=c,
            total_coupling=total,
            damped_coupling=damped,
            static_speed=c0,
            epsmu_prime0=complex(epsmu_prime0),
            lf_second_order=complex(lf_second),
            simple_poles=tuple(simple),
            double_poles=tuple(double),
            simple_zeros=tuple(zeros),
        )

    @staticmethod
    def _is_pole_of(p, oscillators) -> bool:
        return any(
            abs(r - p) <= COINCIDENCE_TOL * (1.0 + abs(p))
            for osc in oscillators
            for r in osc.roots()
        )


def new_medium(eps0, mu0, electric, magnetic) -> LorentzMedium:
    """Validated medium from raw (coupling, resonance, damping) triples."""
    return LorentzMedium(
        eps0=float(eps0),
        mu0=float(mu0),
        electric=tuple(_as_oscillator(t) for t in electric),
        magnetic=tuple(_as_oscillator(t) for t in magnetic),
    )


def _as_oscillator(t) -> Oscillator:
    if isinstance(t, Oscillator):
        return t
    coupling, resonance, damping = t
    return Oscillator(float(coupling), float(resonance), float(damping))


def _guard_poles(omega, oscillators):
    for osc in oscillators:
        for r in osc.roots():
            if np.min(np.abs(omega - r)) < POLE_EVAL_TOL * (1.0 + abs(r)):
                raise EvaluationAtPole(f"omega={omega} too close to pole {r}")


def _material(omega, base, oscillators):
    """base * (1 - sum coupling^2 / q(omega)) for one oscillator family."""
    omega = np.asarray(omega, dtype=complex)
    _guard_poles(omega, oscillators)
    s = np.zeros_like(omega)
    for osc in oscillators:
        s = s + osc.coupling**2 / osc.q(omega)
    out = base * (1.0 - s)
    return out[()] if out.ndim == 0 else out


def _material_prime(omega, base, oscillators):
    """d/domega of ``_material``, closed form."""
    omega = np.asarray(omega, dtype=complex)
    _guard_poles(omega, oscillators)
    s = np.zeros_like(omega)
    for osc in oscillators:
        q = osc.q(omega)
        s = s + osc.coupling**2 * osc.q_prime(omega) / (q * q)
    out = base * s
    return out[()] if out.ndim == 0 else out


def _family_pair(oscillators):
    """Monic (P, Q) coefficient arrays for one oscillator family."""
    pp = np.polynomial.polynomial
    q = np.array([1.0 + 0.0j])
    for osc in oscillators:
        q = pp.polymul(q, np.array([-osc.resonance**2, 1j * osc.damping, 1.0]))
    p = q.copy()
    for j, osc in enumerate(oscillators):
        deleted = np.array([1.0 + 0.0j])
        for k, other in enumerate(oscillators):
            if k != j:
                deleted = pp.polymul(
                    deleted, np.array([-other.resonance**2, 1j * other.damping, 1.0])
                )
        p = pp.polysub(p, osc.coupling**2 * deleted)
    return p, q


def _near_any(value: float, values, tol: float = COINCIDENCE_TOL) -> bool:
    return any(abs(value - v) <= tol * (1.0 + abs(v)) for v in values)


def _merge_close(points, tol):
    """Group complex points within scaled tolerance; returns (center, indices)."""
    groups: list[list[int]] = []
    for i, p in enumerate(points):
        for g in groups:
            rep = points[g[0]]
            if abs(p - rep) <= tol * (1.0 + abs(rep)):
                g.append(i)
                break
        else:
            groups.append([i])
    out = []
    for g in groups:
        center = sum(points[i] for i in g) / len(g)
        out.append((center, g))
    return out
