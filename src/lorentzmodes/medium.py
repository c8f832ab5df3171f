"""Generalized Lorentz media: material functions, pole/zero structure, classification.

A medium is a pair of rational Herglotz material functions built from damped
oscillators.  This module evaluates them, catalogs the poles and zeros of the
product function R(omega) = omega^2 * eps(omega) * mu(omega) with
multiplicities and leading residues, validates the structural assumptions, and
produces the asymptotic coefficient table that the dispersion-branch machinery
checks against.  The structural analysis is symmetric in eps and mu, and each
check is written once for both families: H1 loops over the families, H2 and
the two critical conditions over the pairings (electric, magnetic) and
(magnetic, electric), and the zero catalog over the zeros of eps, then of mu.
Each family's oscillator constants are one read-only table,
``LorentzMedium.family_tables``: past the input checks and the classification
it is the only reader of the oscillators, so every square and pole is taken
once, there.  One evaluator, ``LorentzMedium.family_terms``, turns it into the
oscillator quadratics and the material sum for eps, mu and the operators'
resolvent and eigenvector columns alike.

Every branch of R(omega) = k^2 near a zero or pole of R is a local inverse of
R, so one engine, ``LorentzMedium._branch_series``, gives them all: it expands
eps and mu at the center from the oscillator sums, takes the m-th root of
R / x^m by Miller's power recurrence and reverts the result by Lagrange
inversion (Newton-Puiseux).  The catalog residues and every table coefficient
except the three oscillator sums of the unbounded branches are its output.
"""

from __future__ import annotations

import cmath
import enum
import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    AssumptionViolated,
    DegenerateLeadingCoefficient,
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
        if not (0 < self.coupling < math.inf and 0 < self.resonance < math.inf):
            raise NonPositiveCoefficient(
                f"coupling and resonance must be positive and finite, got {self}"
            )
        if not 0 <= self.damping < math.inf:
            raise NonPositiveCoefficient(f"damping must be nonnegative and finite, got {self}")

    def q(self, omega):
        """The quadratic omega^2 + i*damping*omega - resonance^2."""
        return omega * omega + 1j * self.damping * omega - self.resonance**2

    def roots(self) -> tuple[complex, complex]:
        """Both roots of q, closed form.

        Lies on the real axis iff damping == 0, on the negative imaginary
        axis iff damping >= 2*resonance.  Where |disc| <= 4 eps w^2 the split
        of the two roots is rounding, so both are the exact double root.
        """
        a, w = self.damping, self.resonance
        disc = w * w - 0.25 * a * a
        if abs(disc) <= 4.0 * np.finfo(float).eps * w * w:
            disc = 0.0
        if disc >= 0.0:
            s = math.sqrt(disc)
            return (complex(s, -0.5 * a), complex(-s, -0.5 * a))
        s = math.sqrt(-disc)
        return (complex(0.0, -0.5 * a + s), complex(0.0, -0.5 * a - s))


class FamilyTable(NamedTuple):
    """One oscillator family's constants, one read-only array entry per oscillator."""

    base: float  # eps0 or mu0
    c2: np.ndarray  # coupling^2
    r2: np.ndarray  # resonance^2
    ig: np.ndarray  # 1j * damping
    poles: np.ndarray  # the roots of every quadratic, pair by pair


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
    """Asymptotic coefficients of every slowly-decaying branch family.

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
        if not (0 < self.eps0 < math.inf and 0 < self.mu0 < math.inf):
            raise NonPositiveCoefficient("eps0 and mu0 must be positive and finite")
        object.__setattr__(self, "electric", tuple(self.electric))
        object.__setattr__(self, "magnetic", tuple(self.magnetic))
        if len(self.electric) + len(self.magnetic) < 1:
            raise EmptyMedium("need at least one oscillator")
        _check_oscillators("electric", self.electric)
        _check_oscillators("magnetic", self.magnetic)
        object.__setattr__(self, "_hash", hash((self.eps0, self.mu0, self.electric, self.magnetic)))

    def __hash__(self) -> int:
        return self._hash  # the dataclass's field hash, computed once: memo lookups key on it

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

    @cached_property
    def family_tables(self) -> tuple[FamilyTable, FamilyTable]:
        """(electric, magnetic): each family's oscillator constants, built once, read-only."""
        out = []
        for base, fam in ((self.eps0, self.electric), (self.mu0, self.magnetic)):
            c, r, g = np.array([(o.coupling, o.resonance, o.damping) for o in fam]).reshape(-1, 3).T
            poles = np.array([o.roots() for o in fam], dtype=complex).reshape(-1)
            out.append(FamilyTable(base, c**2, r**2, 1j * g, poles))
            for x in out[-1][1:]:
                x.flags.writeable = False
        return tuple(out)

    def family_terms(self, name, omega):
        """(q, material) of the electric ("e") or magnetic ("m") family at omega.

        q holds each oscillator's quadratic omega^2 + i*damping*omega - resonance^2
        on a new last axis; material, shaped like omega, is eps (or mu) = base * (1 -
        sum coupling^2 / q), summed in oscillator order.  Raises EvaluationAtPole
        naming the first of the family's poles within POLE_EVAL_TOL of any omega.
        Every array of oscillator quadratics is computed here.
        """
        table = self.family_tables["em".index(name)]
        omega = np.asarray(omega, dtype=complex)
        w, poles = omega[..., None], table.poles
        near = np.abs(w - poles) < POLE_EVAL_TOL * (1.0 + np.abs(poles))
        if np.any(near):
            r = complex(poles[np.argmax(near.reshape(-1, len(poles)).any(axis=0))])
            raise EvaluationAtPole(f"omega={omega} too close to pole {r}")
        q = w * w + table.ig * w - table.r2
        cq = table.c2 / q
        s = np.zeros_like(omega)
        for j in range(cq.shape[-1]):
            s = s + cq[..., j]
        return q, (table.base * (1.0 - s))[()]

    def permittivity(self, omega):
        """eps(omega) = eps0 * (1 - sum coupling^2 / q_e(omega))."""
        return self.family_terms("e", omega)[1]

    def permeability(self, omega):
        """mu(omega), same structure as the permittivity."""
        return self.family_terms("m", omega)[1]

    def dispersion_value(self, omega):
        """omega^2 * eps(omega) * mu(omega)."""
        return omega * omega * self.permittivity(omega) * self.permeability(omega)

    # --- polynomial representation ---------------------------------------------

    @cached_property
    def family_polynomials(self):
        """(P_e, Q_e, P_m, Q_m) as ascending monic coefficient arrays.

        Q is the product of the oscillator quadratics; P is Q minus the
        coupling-weighted deleted products, so eps = eps0 * P_e / Q_e.
        """
        return (*_family_pair(self.family_tables[0]), *_family_pair(self.family_tables[1]))

    @cached_property
    def family_zeros(self) -> tuple[np.ndarray, np.ndarray]:
        """(zeros of P_e, zeros of P_m), each empty when its family is.

        Each sorted by descending real, then imaginary part, and computed once
        per medium; the H2 check, the zero catalog, the coefficient table and
        the resolvent's singular set all read them.
        """
        return tuple(
            np.sort_complex(companion_roots(poly))[::-1] if len(table.c2) else np.zeros(0, complex)
            for poly, table in zip(self.family_polynomials[::2], self.family_tables)
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
        for name, table in zip(("electric", "magnetic"), self.family_tables):
            pairs = enumerate(table.poles.reshape(-1, 2).tolist())
            for (i, roots_i), (j, roots_j) in itertools.combinations(pairs, 2):
                for ri, rj in itertools.product(roots_i, roots_j):
                    if abs(ri - rj) <= COINCIDENCE_TOL * (1.0 + abs(ri)):
                        return (name, i, j, ri)
        return None

    def _h2_witness(self):
        pairings = zip(
            self.family_zeros,
            self.family_tables[::-1],
            ("eps-zero is mu-pole", "mu-zero is eps-pole"),
        )
        for zeros, other, what in pairings:
            for z in zeros:
                for p in other.poles:
                    if abs(z - p) <= COINCIDENCE_TOL * (1.0 + abs(p)):
                        return (what, complex(z))
        return None

    def check_assumptions(self) -> ConfigurationReport:
        """Dissipation class, criticality, and the H1/H2 structural checks."""
        h1 = self._h1_witness()
        h2 = self._h2_witness()

        dampings = [o.damping for o in self.electric + self.magnetic]
        if all(a == 0 for a in dampings):
            dissipation = Dissipation.NONE
        elif all(a > 0 for a in dampings):
            dissipation = Dissipation.STRONG
        else:
            dissipation = Dissipation.WEAK

        criticality = Criticality.NON_CRITICAL
        condition = None
        if dissipation is not Dissipation.NONE:
            for number, family, other in (
                (1, self.electric, self.magnetic),
                (2, self.magnetic, self.electric),
            ):
                resonances = [o.resonance for o in other]
                if all(o.damping == 0 for o in other) and any(
                    o.damping == 0 and not _near_any(o.resonance, resonances)
                    for o in family
                ):
                    criticality, condition = Criticality.CRITICAL, number
                    break

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

    def _catalog_poles(self):
        tagged = [(r, fam) for fam, t in zip("em", self.family_tables) for r in t.poles.tolist()]
        entries = []
        for rep, members in _merge_close([r for r, _ in tagged], COINCIDENCE_TOL):
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
            residue = self._branch_series(rep, -mult)[1][0]
            entries.append(PoleEntry(location=rep, multiplicity=mult, klass=klass, residue=residue))
        return entries

    def _catalog_zeros(self):
        tagged = []  # (zero, undamped family): the zeros of eps, then those of mu
        for zeros, table in zip(self.family_zeros, self.family_tables):
            undamped = not table.ig.any()
            for z in zeros:
                if undamped:
                    # real rational function: every zero is real
                    if abs(z.imag) > 1e-8 * (1.0 + abs(z)):
                        raise UnresolvedClustering(
                            f"undamped family produced non-real zero {z}"
                        )
                    z = complex(z.real, 0.0)
                tagged.append((z, undamped))
        # every refusal comes before the residues: _branch_series would raise
        # DegenerateLeadingCoefficient first at a clustered zero
        for rep, members in _merge_close([z for z, _ in tagged], CLUSTER_TOL):
            if len(members) > 1:
                raise UnresolvedClustering(
                    f"{len(members)} zeros cluster at {rep}; no structural multiplicity"
                )
            if abs(rep) <= CLUSTER_TOL:
                raise UnresolvedClustering(f"zero {rep} clusters with the origin")

        origin = ZeroEntry(0j, 2, ZeroClass.ORIGIN, self._branch_series(0j, 2)[1][0])
        return [origin] + [
            ZeroEntry(
                location=z,
                multiplicity=1,
                klass=ZeroClass.SIMPLE_REAL if undamped else ZeroClass.MINUS,
                residue=self._branch_series(z, 1)[1][0],
            )
            for z, undamped in tagged
        ]

    # --- local branch expansions ---------------------------------------------------

    def _branch_series(self, center, m: int, n: int = 1, terms: int = 1):
        """(x, g): fan n of the branches of R(omega) = k^2 at a zero or pole of R.

        R = omega^2 * eps * mu has a zero of order m > 0 or a pole of order -m
        at center, so R(center + x) = x^m * g(x) with g(0) != 0; g holds the
        first ``terms`` coefficients of g, and g[0] is the catalog residue.
        With zeta = k^(2/m) the branch equation is zeta = x * g(x)^(1/m), and
        its reversion (Lagrange inversion) is center + sum_j x[j-1] * zeta^j,
        j = 1..terms, where x[0] is 1/a_n at a zero and a_n at a pole, a_n =
        fan_root(g[0], |m|, n), or a_1 = g[0] when |m| = 1.

        The series of eps and mu at the center come from the oscillator sums:
        each oscillator adds coupling^2 / q(center + x), and an oscillator
        with v roots at the center adds coupling^2 * x^-v / (q / x^v), so the
        pole factors out exactly.  Raises DegenerateLeadingCoefficient when the
        coefficients below x^m are not negligible or the one at x^m is.
        """
        center = complex(center)
        tol = COINCIDENCE_TOL * (1.0 + abs(center))
        families = []
        for table in self.family_tables:
            pairs = table.poles.reshape(-1, 2).tolist()
            owned = [(abs(r1 - center) <= tol) + (abs(r2 - center) <= tol) for r1, r2 in pairs]
            families.append((table, owned, max(owned, default=0)))
        drop = m + sum(shift for *_, shift in families)  # x^shift * R starts at x^drop
        degenerate = f"R / (omega - {center})^{m} has no finite nonzero limit"
        if drop < 0:
            raise DegenerateLeadingCoefficient(degenerate)
        size = drop + terms
        series = [center * center, 2.0 * center, 1.0, *[0.0] * size][:size]
        for (base, c2, r2, ig, _), owned, shift in families:
            # x^shift * eps = base * (x^shift - sum coupling^2 x^(shift-v) / (q / x^v))
            fam = [0j] * size
            if shift < size:
                fam[shift] = base
            for c2_j, r2_j, ig_j, v in zip(c2.tolist(), r2.tolist(), ig.tolist(), owned):
                # q(center + x) / x^v = d0 + d1 x + d2 x^2: a 3-term series division
                d = (center * center + ig_j * center - r2_j, 2.0 * center + ig_j, 1.0, 0.0, 0.0)
                d0, d1, d2 = d[v : v + 3]
                t, prev = base * c2_j / d0, 0.0
                for j in range(shift - v, size):
                    fam[j] -= t
                    t, prev = -(d1 * t + d2 * prev) / d0, t
            series = _series_mul(series, fam, size)
        negligible = CLUSTER_TOL * max(map(abs, series[: drop + 1]))
        if any(abs(c) > negligible for c in series[:drop]) or abs(series[drop]) <= negligible:
            raise DegenerateLeadingCoefficient(degenerate)
        g = series[drop:]
        root = g[0] if abs(m) == 1 else fan_root(g[0], abs(m), n)
        lead = 1.0 / root if m > 0 else root
        return [_series_pow(g, -j / m, lead**j, j)[-1] / j for j in range(1, terms + 1)], g

    # --- asymptotic coefficients ---------------------------------------------------

    def asymptotic_coefficients(self) -> CoefficientTable:
        """Coefficients of every slowly-decaying branch family.

        The unbounded branches take the three oscillator sums; every other
        coefficient is read off the series of ``_branch_series`` at the
        origin, the real poles and the real zeros.  Built once per medium and
        dropped with it (see ``_coefficient_table``).
        """
        return self._coefficient_table

    @cached_property
    def _coefficient_table(self) -> CoefficientTable:
        catalog = self.catalog
        c = 1.0 / math.sqrt(self.eps0 * self.mu0)
        e, m = self.family_tables
        total = sum(e.c2.tolist()) + sum(m.c2.tolist())
        damped = sum((e.ig.imag * e.c2).tolist()) + sum((m.ig.imag * m.c2).tolist())
        # fan 2 of the origin has slope +static_speed; g = eps * mu
        (slope, lf_second), g = self._branch_series(0.0 + 0.0j, 2, n=2, terms=2)

        simple, double = [], []
        for entry in catalog.real_poles():
            p, m = entry.location, entry.multiplicity
            # fan m of a double pole is the + split (a real positive residue)
            (lead, second), _ = self._branch_series(p, -m, n=m, terms=2)
            if m == 1:
                simple.append(SimplePoleCoefficients(p, lead, second))
            else:
                double.append(DoublePoleCoefficients(p, lead.real, second))
        zeros = [
            ZeroCoefficients(z.location, self._branch_series(z.location, 1)[0][0])
            for z in catalog.simple_real_zeros()
        ]

        return CoefficientTable(
            vacuum_speed=c,
            total_coupling=total,
            damped_coupling=damped,
            static_speed=slope.real,
            epsmu_prime0=g[1],
            lf_second_order=lf_second,
            simple_poles=tuple(simple),
            double_poles=tuple(double),
            simple_zeros=tuple(zeros),
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


def fan_root(residue: complex, m: int, n: int) -> complex:
    """The n-th m-th root |residue|^(1/m) * e^(i(arg residue + 2*pi*n)/m) that labels fan n."""
    return abs(residue) ** (1.0 / m) * cmath.exp(
        1j * (cmath.phase(residue) / m + 2.0 * math.pi * n / m)
    )


def _series_mul(a, b, size):
    """First size coefficients of the product of two power series of at least that length."""
    return [sum(a[i] * b[j - i] for i in range(j + 1)) for j in range(size)]


def _series_pow(f, alpha, lead, size):
    """First size coefficients of f(x)^alpha with constant term lead (Miller's recurrence).

    f needs at least size coefficients and f[0] != 0.
    """
    w = [lead]
    for k in range(1, size):
        w.append(sum(((alpha + 1) * j - k) * f[j] * w[k - j] for j in range(1, k + 1)) / (k * f[0]))
    return w


def _family_pair(table: FamilyTable):
    """Monic (P, Q) coefficient arrays for one oscillator family."""
    pp = np.polynomial.polynomial
    quadratics = [np.array([-r2, ig, 1.0]) for r2, ig in zip(table.r2, table.ig)]
    q = np.array([1.0 + 0.0j])
    for quadratic in quadratics:
        q = pp.polymul(q, quadratic)
    p = q.copy()
    for j, c2 in enumerate(table.c2):
        deleted = np.array([1.0 + 0.0j])
        for k, other in enumerate(quadratics):
            if k != j:
                deleted = pp.polymul(deleted, other)
        p = pp.polysub(p, c2 * deleted)
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
