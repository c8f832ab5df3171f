"""Material functions, pole/zero catalog, classification, coefficient table."""

import gc
import json
import pathlib
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.polynomial import polyval

import lorentzmodes as lm
from lorentzmodes.errors import (
    AssumptionViolated,
    DuplicateOscillator,
    EmptyMedium,
    EvaluationAtPole,
    NonPositiveCoefficient,
    UnresolvedClustering,
)
from lorentzmodes.medium import Criticality, Dissipation, PoleClass


class TestConstruction:
    def test_reference_medium_block_count(self, reference_medium):
        assert reference_medium.state_blocks == 6

    def test_duplicate_oscillator_rejected(self):
        with pytest.raises(DuplicateOscillator):
            lm.new_medium(1, 1, [(1, 1, 0.1), (1, 1, 0.1)], [])

    def test_negative_damping_rejected(self):
        with pytest.raises(NonPositiveCoefficient):
            lm.new_medium(1, 1, [(1, 1, -0.1)], [])

    def test_nonpositive_coupling_and_resonance_rejected(self):
        with pytest.raises(NonPositiveCoefficient):
            lm.new_medium(1, 1, [(0.0, 1, 0.1)], [])
        with pytest.raises(NonPositiveCoefficient):
            lm.new_medium(1, 1, [(1, 0.0, 0.1)], [])

    def test_empty_medium_rejected(self):
        with pytest.raises(EmptyMedium):
            lm.new_medium(1, 1, [], [])

    def test_hash_is_the_field_hash_computed_once(self):
        a = lm.new_medium(1.0, 1.0, [(1.0, 1.0, 0.1)], [(1.0, 2.0, 0.2)])
        b = lm.new_medium(1.0, 1.0, [(1.0, 1.0, 0.1)], [(1.0, 2.0, 0.2)])
        assert a is not b and a == b
        assert hash(a) == hash(b) == hash((a.eps0, a.mu0, a.electric, a.magnetic))
        assert a.__dict__["_hash"] == hash(a)  # kept on the instance

    def test_nonpositive_vacuum_constants_rejected(self):
        with pytest.raises(NonPositiveCoefficient):
            lm.new_medium(0.0, 1, [(1, 1, 0.1)], [])


class TestMaterialFunctions:
    def test_static_permittivity(self, reference_medium):
        assert reference_medium.permittivity(0.0) == pytest.approx(2.0)

    def test_static_permeability(self, reference_medium):
        assert reference_medium.permeability(0.0) == pytest.approx(1.25)

    def test_high_frequency_limit(self, reference_medium):
        assert abs(reference_medium.permittivity(1e6) - 1.0) < 1e-10

    def test_hand_value_at_resonance_offset(self, reference_medium):
        # oscillator (1, 1, 0.1) at omega=1: q = 0.1i, eps = 1 - 1/(0.1i) = 1 + 10i
        assert reference_medium.permittivity(1.0) == pytest.approx(1.0 + 10.0j)

    def test_evaluation_at_pole_guard(self, undamped_medium):
        with pytest.raises(EvaluationAtPole):
            undamped_medium.permittivity(1.0)  # exact undamped resonance

    def test_stacked_pole_guard_names_the_first_pole_hit(self, ps_noncritical_medium):
        # reference: the per-oscillator, per-root walk over Oscillator.roots()
        omega = np.array([[0.3, -1.0], [1.0, 2.0 + 1e-14j]])
        r = next(r for osc in ps_noncritical_medium.electric for r in osc.roots()
                 if np.min(np.abs(omega - r)) < 1e-12 * (1.0 + abs(r)))
        with pytest.raises(EvaluationAtPole) as info:
            ps_noncritical_medium.permittivity(omega)
        assert str(info.value) == f"omega={omega.astype(complex)} too close to pole {r}"

    def test_material_matches_the_oscillator_loop_bit_for_bit(self, asymmetric_medium):
        rng = np.random.default_rng(5)
        omega = rng.uniform(-5, 5, (4, 7)) + 1j * rng.uniform(-3, 3, (4, 7))
        for base, oscillators, material in (
            (asymmetric_medium.eps0, asymmetric_medium.electric, asymmetric_medium.permittivity),
            (asymmetric_medium.mu0, asymmetric_medium.magnetic, asymmetric_medium.permeability),
        ):
            s = np.zeros_like(omega)
            for osc in oscillators:
                s = s + osc.coupling**2 / osc.q(omega)
            np.testing.assert_array_equal(material(omega), base * (1.0 - s))

    def test_family_arrays_built_once_and_read_only(self, asymmetric_medium):
        tables = asymmetric_medium.family_tables
        assert asymmetric_medium.family_tables is tables
        for (base, c2, r2, ig, poles), fam, expected_base in zip(
            tables, (asymmetric_medium.electric, asymmetric_medium.magnetic),
            (asymmetric_medium.eps0, asymmetric_medium.mu0),
        ):
            assert base == expected_base
            assert not any(a.flags.writeable for a in (c2, r2, ig, poles))
            np.testing.assert_array_equal(c2, np.array([o.coupling for o in fam]) ** 2)
            np.testing.assert_array_equal(r2, np.array([o.resonance for o in fam]) ** 2)
            np.testing.assert_array_equal(ig, 1j * np.array([o.damping for o in fam]))
            np.testing.assert_array_equal(poles, [x for o in fam for x in o.roots()])

    def test_dispersion_value_vanishes_at_origin(self, reference_medium):
        assert reference_medium.dispersion_value(0.0) == 0.0

    def test_dispersion_conjugation_symmetry(self, reference_medium):
        rng = np.random.default_rng(7)
        for _ in range(20):
            w = complex(rng.normal(), rng.normal())
            left = reference_medium.dispersion_value(-np.conj(w))
            right = np.conj(reference_medium.dispersion_value(w))
            assert left == pytest.approx(right, rel=1e-12)

    def test_dispersion_value_against_rational_form(self, reference_medium):
        # independent path: product of explicit family polynomials
        num, den = reference_medium.numerator_denominator()
        for w in (3.0, 1.7 - 0.4j, -2.2 + 0.1j):
            direct = reference_medium.dispersion_value(w)
            assert polyval(w, num) / polyval(w, den) == pytest.approx(direct, rel=1e-12)

    def test_positive_loss_identity_two_ways(self, reference_medium):
        # Im(omega * eps) on the real axis equals the explicit damping sum
        rng = np.random.default_rng(3)
        for _ in range(50):
            w = float(rng.uniform(-5, 5))
            if abs(abs(w) - 1.0) < 1e-3:
                continue
            direct = (w * reference_medium.permittivity(w)).imag
            expected = sum(
                reference_medium.eps0
                * w**2
                * o.coupling**2
                * o.damping
                / abs(o.q(w)) ** 2
                for o in reference_medium.electric
            )
            assert direct == pytest.approx(expected, rel=1e-12, abs=1e-15)
            assert expected >= 0

    @given(
        re=st.floats(-10, 10, allow_nan=False),
        im=st.floats(-10, 10, allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_conjugation_symmetry_property(self, reference_medium, re, im):
        w = complex(re, im)
        try:
            eps = reference_medium.permittivity(w)
            mu = reference_medium.permeability(w)
            eps_m = reference_medium.permittivity(-np.conj(w))
            mu_m = reference_medium.permeability(-np.conj(w))
        except EvaluationAtPole:
            return
        assert eps_m == pytest.approx(np.conj(eps), rel=1e-12, abs=1e-12)
        assert mu_m == pytest.approx(np.conj(mu), rel=1e-12, abs=1e-12)


class TestPolynomials:
    def test_family_polynomials_single_oscillator(self):
        m = lm.new_medium(1, 1, [(1.0, 1.0, 0.1)], [])
        p_e, q_e, p_m, q_m = m.family_polynomials
        np.testing.assert_allclose(q_e, [-1.0, 0.1j, 1.0])
        np.testing.assert_allclose(p_e, [-2.0, 0.1j, 1.0])  # q - coupling^2
        np.testing.assert_allclose(p_m, [1.0])
        np.testing.assert_allclose(q_m, [1.0])

    def test_built_once_and_read_only(self):
        medium = lm.new_medium(1.0, 1.0, [(1.0, 1.0, 0.1)], [(1.0, 2.0, 0.2)])
        pair = medium.numerator_denominator()
        assert medium.numerator_denominator() is pair
        assert not any(a.flags.writeable for a in pair)

    def test_degrees(self, reference_medium):
        num, den = reference_medium.numerator_denominator()
        assert len(num) - 1 == reference_medium.state_blocks
        assert len(den) - 1 == 2 * (
            reference_medium.n_electric + reference_medium.n_magnetic
        )

    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_numerator_denominator_consistency(self, reference_medium, seed):
        rng = np.random.default_rng(seed)
        w = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        num, den = reference_medium.numerator_denominator()
        try:
            d = reference_medium.dispersion_value(w)
        except EvaluationAtPole:
            return
        assert polyval(w, num) == pytest.approx(d * polyval(w, den), rel=1e-10, abs=1e-12)


class TestCatalog:
    def test_simple_real_poles(self, ps_noncritical_medium):
        reals = ps_noncritical_medium.catalog.real_poles()
        locs = sorted(p.location.real for p in reals)
        assert locs == pytest.approx([-1.0, 1.0])
        assert all(p.klass is PoleClass.SIMPLE_REAL for p in reals)

    def test_double_real_poles(self, double_pole_medium):
        reals = double_pole_medium.catalog.real_poles()
        assert sorted(p.location.real for p in reals) == pytest.approx([-1.0, 1.0])
        assert all(p.klass is PoleClass.DOUBLE_REAL for p in reals)
        assert all(p.multiplicity == 2 for p in reals)

    def test_origin_residue_is_static_product(self, reference_medium):
        origin = reference_medium.catalog.origin
        assert origin.multiplicity == 2
        expected = (
            reference_medium.permittivity(0.0) * reference_medium.permeability(0.0)
        )
        assert origin.residue == pytest.approx(expected, rel=1e-12)
        assert origin.residue.real > 0

    def test_multiplicity_sums(self, critical_medium):
        cat = critical_medium.catalog
        n_osc = critical_medium.n_electric + critical_medium.n_magnetic
        assert sum(p.multiplicity for p in cat.poles) == 2 * n_osc
        assert sum(z.multiplicity for z in cat.zeros) == critical_medium.state_blocks

    def test_catalog_conjugation_symmetry(self, critical_medium):
        cat = critical_medium.catalog
        for group in (cat.poles, cat.zeros):
            locs = sorted(
                (round(p.location.real, 9), round(p.location.imag, 9)) for p in group
            )
            mirrored = sorted(
                (round(-p.location.real, 9), round(p.location.imag, 9)) for p in group
            )
            assert locs == mirrored

    def test_lower_half_plane(self, critical_medium):
        cat = critical_medium.catalog
        assert all(p.location.imag <= 1e-12 for p in cat.poles)
        assert all(z.location.imag <= 1e-12 for z in cat.zeros)

    def test_simple_pole_residue_against_local_limit(self, ps_noncritical_medium):
        # independent oracle: numerical limit of (omega - p) * D(omega)
        entry = next(
            p
            for p in ps_noncritical_medium.catalog.real_poles()
            if p.location.real > 0
        )
        p = entry.location
        for h in (1e-5, 1e-6):
            approx = (p + h * 1j - p) * ps_noncritical_medium.dispersion_value(
                p + h * 1j
            )
            assert approx == pytest.approx(entry.residue, rel=5e-4)

    def test_a_damping_ratio_one_ulp_off_2_is_the_double_root(self):
        # the roots' split is rounding there: four roots at -1j are one pole of order 4
        # (electric 2.0 exact, magnetic one ulp above), not two noise poles
        medium = lm.new_medium(1, 1, [(1, .5, 0), (1, 1, 0), (1, .75, 0), (1, 1, 2.0)],
                               [(1, 1, 2.0000000000000004)])
        minus = [p for p in medium.catalog.poles if p.klass is PoleClass.MINUS]
        assert [p.multiplicity for p in minus] == [4]
        assert abs(minus[0].location + 1j) <= 1e-15
        assert abs(minus[0].residue + 1.0) <= 1e-12
        # a lone such oscillator is the double pole of the exact ratio 2
        near, exact = (lm.new_medium(1, 1, [(1, 1, a)], []).catalog.poles
                       for a in (2.0000000000000004, 2.0))
        assert [p.multiplicity for p in near] == [p.multiplicity for p in exact] == [2]
        assert abs(near[0].location - exact[0].location) <= 1e-15
        assert abs(near[0].residue - exact[0].residue) <= 1e-12

    def test_family_zeros_in_descending_order(self, critical_medium, double_pole_medium):
        # the catalog lists zeros in this order whatever order the eigensolver returns
        for medium in (critical_medium, double_pole_medium):
            for zeros in medium.family_zeros:
                np.testing.assert_array_equal(zeros, np.sort_complex(zeros)[::-1])

    def test_zs_empty_when_both_families_damped(self, reference_medium):
        assert reference_medium.catalog.simple_real_zeros() == []

    def test_zs_real_zeros_of_undamped_family(self, critical_medium):
        zs = critical_medium.catalog.simple_real_zeros()
        # permeability 1 - 1/(w^2 - 4) vanishes at +-sqrt(5)
        assert sorted(z.location.real for z in zs) == pytest.approx(
            [-np.sqrt(5), np.sqrt(5)]
        )


class TestAssumptions:
    def test_strong_noncritical(self, reference_medium):
        rep = reference_medium.check_assumptions()
        assert rep.dissipation is Dissipation.STRONG
        assert rep.criticality is Criticality.NON_CRITICAL
        assert rep.h1_satisfied and rep.h2_satisfied

    def test_weak_critical_condition_1(self, critical_medium):
        rep = critical_medium.check_assumptions()
        assert rep.dissipation is Dissipation.WEAK
        assert rep.criticality is Criticality.CRITICAL
        assert rep.critical_condition == 1
        assert rep.summary() == "Weak, Critical (condition 1)"

    def test_weak_critical_condition_2(self):
        # critical_medium with its families swapped
        rep = lm.new_medium(1, 1, [(1, 2, 0)], [(1, 1, 0), (1, 1.5, 0.3)]).check_assumptions()
        assert rep.dissipation is Dissipation.WEAK
        assert rep.critical_condition == 2
        assert rep.summary() == "Weak, Critical (condition 2)"

    def test_no_dissipation(self, undamped_medium):
        rep = undamped_medium.check_assumptions()
        assert rep.dissipation is Dissipation.NONE
        assert rep.criticality is Criticality.NON_CRITICAL

    def test_h1_violation_reported_and_raised(self, h1_violation_medium):
        rep = h1_violation_medium.check_assumptions()
        assert not rep.h1_satisfied
        assert rep.h1_witness == ("electric", 0, 1, -4j)
        with pytest.raises(AssumptionViolated):
            _ = h1_violation_medium.catalog

    def test_h2_violation_reported_and_raised(self, h2_violation_medium):
        rep = h2_violation_medium.check_assumptions()
        assert not rep.h2_satisfied
        with pytest.raises(AssumptionViolated):
            _ = h2_violation_medium.catalog

    def test_h2_witness_in_both_directions(self, h2_violation_medium):
        mirror = lm.new_medium(
            1.0, 1.0, h2_violation_medium.magnetic, h2_violation_medium.electric
        )
        for medium, direction in (
            (h2_violation_medium, "eps-zero is mu-pole"),
            (mirror, "mu-zero is eps-pole"),
        ):
            rep = medium.check_assumptions()
            assert rep.h1_satisfied and not rep.h2_satisfied
            assert rep.h2_witness[0] == direction
            assert rep.h2_witness[1] == pytest.approx(np.sqrt(2.0), rel=1e-12)
            assert type(rep.h2_witness[1]) is complex  # printed as the H1 witness is

    def test_identical_families_refused_as_a_zero_cluster(self):
        # eps * mu then has a double zero the catalog does not model; the refusal is typed
        medium = lm.new_medium(1, 1, [(1, 1, 0.1)], [(1, 1, 0.1)])
        rep = medium.check_assumptions()
        assert rep.h1_satisfied and rep.h2_satisfied
        with pytest.raises(UnresolvedClustering) as info:
            _ = medium.catalog
        assert str(info.value) == (
            "2 zeros cluster at (1.413329402510257-0.05j); no structural multiplicity"
        )

    def test_shared_resonance_is_not_critical(self, double_pole_medium):
        rep = double_pole_medium.check_assumptions()
        assert rep.criticality is Criticality.NON_CRITICAL
        assert rep.dissipation is Dissipation.WEAK


class TestCoefficientTable:
    def test_built_once_and_dropped_with_the_medium(self):
        medium = lm.new_medium(1.0, 1.0, [(1.0, 1.0, 0.1)], [(1.0, 2.0, 0.2)])
        assert medium.asymptotic_coefficients() is medium.asymptotic_coefficients()
        ref = weakref.ref(medium)
        del medium
        gc.collect()
        assert ref() is None

    def test_reference_closed_forms(self, reference_medium):
        t = reference_medium.asymptotic_coefficients()
        assert t.vacuum_speed == pytest.approx(1.0)
        assert t.total_coupling == pytest.approx(2.0)
        assert t.damped_coupling == pytest.approx(0.3)
        assert t.static_speed == pytest.approx(0.632456, abs=1e-6)

    def test_critical_pole_coefficients(self, critical_medium):
        t = critical_medium.asymptotic_coefficients()
        crit = [p for p in t.simple_poles if abs(p.pole - 1.0) < 1e-9]
        assert len(crit) == 1
        assert crit[0].second_order.imag == pytest.approx(0.0, abs=1e-14)
        assert crit[0].fourth_order.imag < 0

    def test_noncritical_simple_poles_lossy(self, ps_noncritical_medium):
        t = ps_noncritical_medium.asymptotic_coefficients()
        assert t.simple_poles
        assert all(p.second_order.imag < 0 for p in t.simple_poles)

    def test_simple_pole_second_order_equals_residue(self, ps_noncritical_medium):
        # two independent routes to the same quantity
        cat = ps_noncritical_medium.catalog
        t = ps_noncritical_medium.asymptotic_coefficients()
        for entry in t.simple_poles:
            res = next(
                p.residue for p in cat.poles if abs(p.location - entry.pole) < 1e-9
            )
            assert entry.second_order == pytest.approx(res, rel=1e-10)

    def test_zero_curvature_is_reciprocal_residue(self, critical_medium):
        cat = critical_medium.catalog
        t = critical_medium.asymptotic_coefficients()
        for entry in t.simple_zeros:
            res = next(
                z.residue for z in cat.zeros if abs(z.location - entry.zero) < 1e-9
            )
            assert entry.curvature == pytest.approx(1.0 / res, rel=1e-9)
            assert entry.curvature.imag < 0

    def test_double_pole_split(self, double_pole_medium):
        t = double_pole_medium.asymptotic_coefficients()
        assert len(t.double_poles) == 2
        for entry in t.double_poles:
            assert entry.split == pytest.approx(0.5)  # coupling product / (2 c)
            assert entry.second_order.imag < 0

    def test_static_derivative_purely_imaginary(self, critical_medium):
        t = critical_medium.asymptotic_coefficients()
        assert t.epsmu_prime0.real == pytest.approx(0.0, abs=1e-14)
        assert (-t.epsmu_prime0).imag < 0


#: every catalog residue and CoefficientTable field of the fixture media, as
#: the hand-derived closed forms gave them before the series-reversion engine
_PINS = json.loads((pathlib.Path(__file__).parent / "coefficient_table_pins.json").read_text())


def _pinned(medium):
    """The catalog and table of a medium in the layout of coefficient_table_pins.json."""
    cat, t = medium.catalog, medium.asymptotic_coefficients()
    return {
        "poles": [[p.location, p.multiplicity, p.klass.value, p.residue] for p in cat.poles],
        "zeros": [[z.location, z.multiplicity, z.klass.value, z.residue] for z in cat.zeros],
        "vacuum_speed": t.vacuum_speed,
        "total_coupling": t.total_coupling,
        "damped_coupling": t.damped_coupling,
        "static_speed": t.static_speed,
        "epsmu_prime0": t.epsmu_prime0,
        "lf_second_order": t.lf_second_order,
        "simple_poles": [[e.pole, e.second_order, e.fourth_order] for e in t.simple_poles],
        "double_poles": [[e.pole, e.split, e.second_order] for e in t.double_poles],
        "simple_zeros": [[e.zero, e.curvature] for e in t.simple_zeros],
    }


def _assert_matches_pin(value, pin, where):
    """Structure and labels exactly, every number to 1e-12 relative; [re, im] pins are complex."""
    if isinstance(pin, (str, int)):
        assert value == pin, where
    elif isinstance(pin, list) and isinstance(value, complex):
        expected = complex(*pin)
        assert abs(value - expected) <= 1e-12 * abs(expected), (where, value, expected)
    elif isinstance(pin, list):
        assert len(value) == len(pin), where
        for i, (v, p) in enumerate(zip(value, pin)):
            _assert_matches_pin(v, p, f"{where}[{i}]")
    else:
        assert abs(value - pin) <= 1e-12 * abs(pin), (where, value, pin)


@pytest.mark.parametrize("name", sorted(_PINS))
def test_catalog_and_table_match_the_pins(name, request):
    medium = request.getfixturevalue(name)
    got = _pinned(medium)
    for field, pin in _PINS[name].items():
        _assert_matches_pin(got[field], pin, f"{name}.{field}")
