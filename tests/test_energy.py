"""Quadrature engine, energy records, exponent fitting, decay-law verification."""

import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lorentzmodes as lm
from lorentzmodes import dispersion as dsp
from lorentzmodes import energy as en
from lorentzmodes.errors import ExponentMismatch, NonPolynomialDecay, WindowTooShort
from lorentzmodes.evolution import propagate
from lorentzmodes.operators import build_perp_operator, eigenvector_columns


class TestQuadratureEngine:
    def test_polynomial_exactness_per_panel(self):
        # Gauss order with 32 nodes is far above degree 7
        ks, ws = en.gauss_panels(0.5, 8.0, 4)
        approx = float(np.sum(ws * ks**7))
        exact = (8.0**8 - 0.5**8) / 8.0
        assert abs(approx - exact) <= 1e-12 * exact

    def test_gaussian_moment_oracle(self):
        # closed form: int k^(2p+2) exp(-c k^2 t) dk = Gamma(p+3/2)/2 * (c t)^-(p+3/2)
        p, c, t = 1.0, 0.05, 1e3
        ks, ws = en.gauss_panels(1e-4, 1.0, 16)
        approx = float(np.sum(ws * ks ** (2 * p + 2) * np.exp(-c * ks**2 * t)))
        exact = 0.5 * math.gamma(p + 1.5) * (c * t) ** -(p + 1.5)
        assert approx == pytest.approx(exact, rel=0.01)

    def test_flat_band_initial_energy(self, reference_medium):
        # E(0) = 4 pi * int_1^2 k^2 dk = 28 pi / 3 for a unit direction
        profile = en.power_law(0.0, 1.0, 2.0)
        record = en.simulate_energy(
            reference_medium, profile, en.FixedRandomUnit(0), [0.0, 1.0]
        )
        assert record.energy[0] == pytest.approx(28.0 * math.pi / 3.0, rel=1e-10)


class TestClosedFormTrace:
    """exp(2 Im omega t) against full propagation of the normalised eigenvector."""

    @staticmethod
    def _compare(medium, label, ks):
        table = medium.asymptotic_coefficients()
        t = en._log_time_grid(1e5)
        omega = en.branch_eigenvalue(medium, table, label, ks)
        closed = np.exp(2.0 * np.outer(omega.imag, t))
        for k, row in zip(ks, closed):
            w = en.branch_eigenvalue(medium, table, label, float(k))
            op = build_perp_operator(medium, float(k))
            v = eigenvector_columns(medium, float(k), w)[:, 0]
            full = propagate(op, v / op.norm(v), t, keep_states=False).norms ** 2
            assert np.all(np.abs(full - row) <= 1e-8 * row + 1e-20)

    def test_reference_low_band(self, reference_medium):
        k_minus = en.diagnosed_bands(reference_medium)[0]
        self._compare(reference_medium, dsp.Zero0(1), np.geomspace(k_minus / 100, k_minus, 6))

    def test_reference_high_band(self, reference_medium):
        k_plus = en.diagnosed_bands(reference_medium)[1]
        self._compare(reference_medium, dsp.PlusInf(), np.geomspace(k_plus, 100 * k_plus, 6))

    def test_critical_pole(self, critical_medium):
        table = critical_medium.asymptotic_coefficients()
        pole = next(p for p in table.simple_poles if abs(p.second_order.imag) < 1e-12)
        label = dsp.Pole(pole.pole, 1, 1, pole.second_order)
        k_plus = en.diagnosed_bands(critical_medium)[1]
        self._compare(critical_medium, label, np.geomspace(k_plus, 100 * k_plus, 6))


class TestPropagatedTrace:
    """The stacked helicity traces against propagating every node on its own."""

    @staticmethod
    def _per_node(medium, rule, ks, t_grid):
        rng = np.random.default_rng(rule.seed)
        dim = 2 * medium.state_blocks
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        traces = []
        for k in ks:
            op = build_perp_operator(medium, float(k))
            traces.append(propagate(op, v / op.norm(v), t_grid, keep_states=False).norms ** 2)
        return np.stack(traces)

    @pytest.mark.parametrize(
        "name", ["reference_medium", "asymmetric_medium", "electric_only_medium"]
    )
    def test_matches_per_node_propagation(self, name, request, monkeypatch):
        medium = request.getfixturevalue(name)
        profile = en.power_law(0.0, 0.01, 100.0)  # low, mid and high band
        rule = en.FixedRandomUnit(4)
        t = np.geomspace(1.0, 100.0, 9)
        stacked = en.simulate_energy(medium, profile, rule, t)
        monkeypatch.setattr(en, "_propagated_traces", self._per_node)
        reference = en.simulate_energy(medium, profile, rule, t)
        assert stacked.panels == reference.panels
        np.testing.assert_allclose(stacked.energy, reference.energy, rtol=1e-9, atol=0)


class TestDiagnosedBands:
    def test_tracked_once_and_dropped_with_the_medium(self, monkeypatch):
        medium = lm.new_medium(1.0, 1.0, [(1.0, 1.0, 0.1)], [(1.0, 2.0, 0.2)])
        calls = []
        track = dsp.track_branches

        def counting(*args, **kwargs):
            calls.append(args[1])
            return track(*args, **kwargs)

        monkeypatch.setattr(dsp, "track_branches", counting)
        first = en.diagnosed_bands(medium)
        assert en.diagnosed_bands(medium) == first
        assert len(calls) == 1
        ref = weakref.ref(medium)
        del medium
        gc.collect()
        assert ref() is None


class TestProfiles:
    def test_sobolev_tail_validates_class(self):
        with pytest.raises(ValueError):
            en.sobolev_tail(2.0, 3.5, 1.0, 10.0)  # needs s > 3/2 + m strictly
        prof = en.sobolev_tail(2.0, 4.0, 1.0, 10.0)
        assert prof(3.0) == pytest.approx((1 + 9.0) ** -2)

    def test_power_law_band(self):
        with pytest.raises(ValueError):
            en.power_law(0.0, 2.0, 1.0)
        prof = en.power_law(2.0, 0.1, 1.0)
        assert prof(0.5) == pytest.approx(0.25)


class TestFitExponent:
    def test_pure_power_law_recovered_exactly(self):
        t = np.geomspace(1.0, 1e4, 81)
        record = en.DecayRecord(t_grid=t, energy=t**-2.5, tag="synthetic", panels=0)
        gamma, conf = en.fit_exponent(record, (1e2, 1e4))
        assert gamma == pytest.approx(2.5, abs=1e-10)
        assert conf < 1e-10

    @given(st.floats(0.2, 6.0), st.floats(0.1, 10.0))
    @settings(max_examples=50, deadline=None)
    def test_power_law_property(self, exponent, scale):
        t = np.geomspace(1.0, 1e4, 61)
        record = en.DecayRecord(
            t_grid=t, energy=scale * t**-exponent, tag="synthetic", panels=0
        )
        gamma, _ = en.fit_exponent(record, (1e2, 1e4))
        assert gamma == pytest.approx(exponent, rel=1e-9)

    def test_exponential_rejected(self):
        t = np.geomspace(1.0, 500.0, 61)
        record = en.DecayRecord(t_grid=t, energy=np.exp(-t), tag="synthetic", panels=0)
        with pytest.raises(NonPolynomialDecay):
            en.fit_exponent(record, (1e2, 500.0))

    def test_window_too_short(self):
        t = np.geomspace(1.0, 1e4, 10)
        record = en.DecayRecord(t_grid=t, energy=t**-1.0, tag="synthetic", panels=0)
        with pytest.raises(WindowTooShort):
            en.fit_exponent(record, (5e3, 6e3))
        with pytest.raises(WindowTooShort):
            en.fit_exponent(record, (1.0, 1e4))  # starts before the asymptotic regime


class TestGammaLF:
    def test_p0(self, lf_report_p0):
        assert 1.35 <= lf_report_p0.fitted <= 1.65

    def test_p2(self, lf_report_p2):
        assert 3.15 <= lf_report_p2.fitted <= 3.85

    def test_p1(self, reference_medium):
        report = en.verify_gamma_lf(reference_medium, 1.0)
        assert report.fitted == pytest.approx(2.5, abs=0.25)

    def test_discretization_independence(self, reference_medium, lf_report_p0):
        k_minus = en.diagnosed_bands(reference_medium)[0]
        halved = en.verify_gamma_lf(reference_medium, 0.0, k_minus=k_minus / 2)
        assert abs(halved.fitted - lf_report_p0.fitted) <= 0.05


class TestGammaHF:
    def test_noncritical_m2(self, hf_report_reference):
        assert 1.8 <= hf_report_reference.fitted <= 2.2

    def test_critical_m2(self, hf_report_critical):
        assert 0.9 <= hf_report_critical.fitted <= 1.1

    def test_declared_class_must_be_admissible(self, reference_medium):
        with pytest.raises(ValueError):
            en.verify_gamma_hf(reference_medium, 2.0, s=3.0)

    def test_lossless_medium_refused_typed(self, undamped_medium):
        with pytest.raises(ExponentMismatch, match="no dissipation reaches the high band"):
            en.verify_gamma_hf(undamped_medium, 1.0)
        with pytest.raises(ExponentMismatch, match="no dissipation reaches the low band"):
            en.verify_gamma_lf(undamped_medium, 0.0)

    def test_energy_times_target_power_bounded(self, hf_report_reference):
        # upper-bound side: E(t) * t^m stays bounded on the fit window
        rec = hf_report_reference.record
        lo, hi = hf_report_reference.window
        sel = (rec.t_grid >= lo) & (rec.t_grid <= hi)
        product = rec.energy[sel] * rec.t_grid[sel] ** 2.0
        assert product.max() <= 10.0 * product.min() + 1e-30
        assert product[-1] <= product[0]


class TestEnergyRuns:
    def test_monotone_decrease(self, lf_report_p0):
        assert np.all(np.diff(lf_report_p0.record.energy) <= 1e-12)

    def test_plancherel_band_additivity(self, reference_medium):
        t = [0.0, 5.0, 25.0]
        rule = en.FixedRandomUnit(3)
        total = en.simulate_energy(
            reference_medium, en.power_law(0.0, 0.1, 10.0), rule, t
        )
        parts = [
            en.simulate_energy(reference_medium, en.power_law(0.0, a, b), rule, t)
            for a, b in ((0.1, 1.0), (1.0, 5.0), (5.0, 10.0))
        ]
        summed = sum(p.energy for p in parts)
        np.testing.assert_allclose(summed, total.energy, rtol=2e-5)

    def test_full_band_convergence_to_zero(self, reference_medium):
        t_list = np.geomspace(1.0, 3e4, 25)
        record = en.convergence_to_zero(reference_medium, t_list)
        assert np.all(np.diff(record.energy) < 0)
        assert record.energy[-1] / record.energy[0] < 1e-2

    def test_undamped_energy_constant(self, undamped_medium):
        profile = en.power_law(0.0, 0.3, 0.7)  # real-axis crossings avoided
        record = en.simulate_energy(
            undamped_medium, profile, en.FixedRandomUnit(1), np.linspace(0, 100, 11)
        )
        assert np.max(np.abs(record.energy / record.energy[0] - 1.0)) < 1e-9

    def test_more_damping_decays_at_least_as_fast(self, reference_medium):
        weaker = lm.new_medium(1, 1, [(1, 1, 0.0)], [(1, 2, 0.2)])
        profile = en.power_law(0.0, 0.2, 3.0)
        rule = en.FixedRandomUnit(7)
        t = np.geomspace(1.0, 1e3, 10)
        strong = en.simulate_energy(reference_medium, profile, rule, t)
        weak = en.simulate_energy(weaker, profile, rule, t)
        # consistency check: relative decay never slower for the damped medium
        assert np.all(
            strong.energy / strong.energy[0] <= weak.energy / weak.energy[0] + 1e-9
        )

    def test_added_damping_keeps_spectrum_dissipative(self):
        from lorentzmodes.dispersion import solve_dispersion

        for alpha in (0.0, 0.05, 0.2, 1.0):
            m = lm.new_medium(1, 1, [(1, 1, alpha)], [(1, 2, 0.2)])
            for k in (0.3, 1.0, 4.0):
                assert np.max(solve_dispersion(m, k).imag) <= 1e-12
