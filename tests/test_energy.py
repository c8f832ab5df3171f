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
from lorentzmodes import polyroots
from lorentzmodes.errors import (
    ExponentMismatch,
    InvalidWavenumber,
    NonPolynomialDecay,
    QuadratureNonconvergent,
    WindowTooShort,
)
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

    def test_legendre_rule_matches_fresh_leggauss(self):
        fresh_x, fresh_w = np.polynomial.legendre.leggauss(32)
        np.testing.assert_array_equal(en._LEGENDRE_X, fresh_x)
        np.testing.assert_array_equal(en._LEGENDRE_W, fresh_w)
        assert not (en._LEGENDRE_X.flags.writeable or en._LEGENDRE_W.flags.writeable)

    def test_flat_band_initial_energy(self, reference_medium):
        # E(0) = 4 pi * int_1^2 k^2 dk = 28 pi / 3 for a unit direction
        profile = en.power_law(0.0, 1.0, 2.0)
        record = en.simulate_energy(
            reference_medium, profile, en.FixedRandomUnit(0), [0.0, 1.0]
        )
        assert record.energy[0] == pytest.approx(28.0 * math.pi / 3.0, rel=1e-10)


class TestPanelDoubling:
    """Which panel rules simulate_energy evaluates, and in how many stacked calls."""

    def test_first_two_rules_share_one_call(self, request, monkeypatch):
        runs = [
            ("reference_medium", lambda m: en.verify_gamma_lf(m, 0.0).record),
            ("reference_medium", lambda m: en.verify_gamma_hf(m, 2.0).record),
            ("critical_medium", lambda m: en.verify_gamma_hf(m, 2.0).record),
            ("reference_medium", lambda m: en.convergence_to_zero(m, np.geomspace(1.0, 3e4, 25))),
        ]
        rows, calls = [], []
        branch, propagated = en.branch_eigenvalue, en._propagated_traces
        simulate = en.simulate_energy

        def counted_branch(medium, label, k):
            rows.append(np.size(k))
            return branch(medium, label, k)

        def counted_propagated(medium, rule, ks, t_grid):
            rows.append(len(ks))
            return propagated(medium, rule, ks, t_grid)

        def recorded(*args):
            calls.append(args)
            return simulate(*args)

        monkeypatch.setattr(en, "branch_eigenvalue", counted_branch)
        monkeypatch.setattr(en, "_propagated_traces", counted_propagated)
        monkeypatch.setattr(en, "simulate_energy", recorded)
        for name, run in runs:
            medium = request.getfixturevalue(name)
            rows.clear()
            calls.clear()
            record = run(medium)
            ((_, profile, rule, _),) = calls
            n = math.ceil(math.log10(profile.k_max / profile.k_min))  # one panel per decade
            assert rows == [3 * n * en.NODES_PER_PANEL]
            assert record.panels == 2 * n

            energies, exponent = [], None
            for panels in (n, 2 * n):
                ks, ws = en.gauss_panels(profile.k_min, profile.k_max, panels)
                weights = ws * ks**2 * profile(ks) ** 2
                if isinstance(rule, en.OptimalBranch):
                    rate = 2.0 * branch(medium, rule.label, ks).imag
                    traces = np.exp(np.outer(rate, record.t_grid))
                    last = weights * traces[:, -1]  # the accepted rule's is the one kept
                    exponent = -record.t_grid[-1] * np.sum(rate * last) / np.sum(last)
                else:
                    traces = propagated(medium, rule, ks, record.t_grid)
                energies.append(4.0 * math.pi * np.einsum("i,ij->j", weights, traces))
            assert np.array_equal(record.energy, energies[1])
            assert abs(energies[1][-1] - energies[0][-1]) <= en.QUAD_TOL * abs(energies[0][-1])
            if exponent is None:
                assert record.exponent is None
            else:
                assert record.exponent == pytest.approx(exponent, rel=1e-12, abs=0)

    def test_unsettled_run_evaluates_each_rule_once(
        self, reference_medium, reference_bands, monkeypatch
    ):
        panels, rows = [], []
        gauss, branch = en.gauss_panels, en.branch_eigenvalue

        def counted_rule(k_min, k_max, n_panels):
            panels.append(n_panels)
            return gauss(k_min, k_max, n_panels)

        def counted_rows(medium, label, k):
            rows.append(np.size(k))
            return branch(medium, label, k)

        monkeypatch.setattr(en, "gauss_panels", counted_rule)
        monkeypatch.setattr(en, "branch_eigenvalue", counted_rows)
        monkeypatch.setattr(en, "QUAD_TOL", 0.0)
        # a jump no panel edge meets keeps every doubling off by far more than rounding;
        # 0.6 decades make one panel first
        k_plus = reference_bands[1]
        step = en.RadialProfile(k_plus, 4.0 * k_plus, lambda k: 1.0 + (k < 3.0 * k_plus))
        last = 2**en.MAX_PANEL_DOUBLINGS
        with pytest.raises(QuadratureNonconvergent, match=f"not settled after {last} panels$"):
            en.simulate_energy(reference_medium, step, en.OptimalBranch(dsp.PlusInf()), [0, 10])
        doubled = [2**d for d in range(en.MAX_PANEL_DOUBLINGS + 1)]
        assert panels == doubled
        assert rows == [n * en.NODES_PER_PANEL for n in [3] + doubled[2:]]


class TestClosedFormTrace:
    """exp(2 Im omega t) against full propagation of the normalised eigenvector."""

    @staticmethod
    def _compare(medium, label, ks):
        t = dsp._log_grid(1.0, 1e5, 20)
        omega = en.branch_eigenvalue(medium, label, ks)
        closed = np.exp(2.0 * np.outer(omega.imag, t))
        for k, row in zip(ks, closed):
            w = en.branch_eigenvalue(medium, label, float(k))
            op = build_perp_operator(medium, float(k))
            v = eigenvector_columns(medium, float(k), w)[:, 0]
            full = propagate(op, v / op.norm(v), t, keep_states=False).norms ** 2
            assert np.all(np.abs(full - row) <= 1e-8 * row + 1e-20)

    def test_reference_low_band(self, reference_medium):
        k_minus = reference_medium.diagnosed_bands[0]
        self._compare(reference_medium, dsp.Zero0(1), np.geomspace(k_minus / 100, k_minus, 6))

    def test_reference_high_band(self, reference_medium):
        k_plus = reference_medium.diagnosed_bands[1]
        self._compare(reference_medium, dsp.PlusInf(), np.geomspace(k_plus, 100 * k_plus, 6))

    def test_critical_pole(self, critical_medium):
        table = critical_medium.asymptotic_coefficients()
        pole = next(p for p in table.simple_poles if abs(p.second_order.imag) < 1e-12)
        label = dsp.Pole(pole.pole, 1, 1, pole.second_order)
        k_plus = critical_medium.diagnosed_bands[1]
        self._compare(critical_medium, label, np.geomspace(k_plus, 100 * k_plus, 6))


def _anchored_labels(medium):
    """(label, band wavenumbers) of every anchored run: Zero0(1) low, PlusInf high, a critical Pole."""
    k_minus, k_plus = medium.diagnosed_bands
    low, high = np.geomspace(k_minus / 1e4, k_minus, 120), np.geomspace(k_plus, 1e3 * k_plus, 120)
    labels = [(dsp.Zero0(1), low), (dsp.PlusInf(), high)]
    table = medium.asymptotic_coefficients()
    if medium.check_assumptions().criticality is lm.Criticality.CRITICAL:
        pole = next(p for p in table.simple_poles if abs(p.second_order.imag) < 1e-12)
        labels.append((dsp.Pole(pole.pole, 1, 1, pole.second_order), high))
    return labels


def _argmin_pick(medium, label, ks):
    """The root nearest the anchor among all N roots of the full solve."""
    table = medium.asymptotic_coefficients()
    roots = dsp.solve_dispersion(medium, ks)
    anchor = dsp.expansion(label, table)[0](ks)
    return roots[np.arange(len(ks)), np.argmin(np.abs(roots - anchor[:, None]), axis=1)]


class TestBranchEigenvalue:
    """The single-root Newton against the nearest-to-anchor root of the full solve."""

    MEDIA = ("reference_medium", "critical_medium", "asymmetric_medium", "wide_medium")

    @pytest.mark.parametrize("name", MEDIA)
    def test_matches_full_solve_pick(self, name, request):
        # the band grids start at the band edges, where the anchors are least accurate
        medium = request.getfixturevalue(name)
        for label, ks in _anchored_labels(medium):
            omega = en.branch_eigenvalue(medium, label, ks)
            expected = _argmin_pick(medium, label, ks)
            assert np.all(np.abs(omega - expected) <= 1e-13 * np.abs(expected)), label
            scalar = [en.branch_eigenvalue(medium, label, float(k)) for k in ks]
            np.testing.assert_array_equal(np.array(scalar), omega)

    def test_unsettled_rows_take_the_full_solve_pick(self, reference_medium, monkeypatch):
        ks = np.geomspace(2.0, 200.0, 9)
        newton = en.certified_root_near

        def every_other_unsettled(rows, start):
            # rows 0, 2, ... and the one row of a scalar call fall back
            roots, settled = newton(rows, start)
            return roots, settled & (np.arange(len(rows)) % 2 == 1)

        monkeypatch.setattr(en, "certified_root_near", every_other_unsettled)
        omega = en.branch_eigenvalue(reference_medium, dsp.PlusInf(), ks)
        expected = _argmin_pick(reference_medium, dsp.PlusInf(), ks)
        assert np.all(np.abs(omega - expected) <= 1e-13 * np.abs(expected))
        assert en.branch_eigenvalue(reference_medium, dsp.PlusInf(), 2.0) == omega[0]

    @pytest.mark.parametrize("name", ["reference", "critical", "double_pole"])
    def test_every_label_anchors_to_its_tracked_branch(self, name, request):
        # ZeroMinus, non-real poles and double-pole fans included
        medium = request.getfixturevalue(f"{name}_medium")
        branches = request.getfixturevalue(f"{name}_branches")
        table = medium.asymptotic_coefficients()
        k_minus, k_plus = dsp.diagnose_bands(branches, table)
        k = branches[0].k
        for b in branches:
            for label, band in ((b.hf_label, k >= k_plus), (b.lf_label, k <= k_minus)):
                omega = en.branch_eigenvalue(medium, label, k[band])
                assert np.all(np.abs(omega - b.omega[band]) <= 1e-12 * np.abs(b.omega[band])), label

    def test_nan_wavenumber_refused_typed(self, reference_medium):
        for k in (np.nan, np.array([1.0, np.nan])):
            with pytest.raises(InvalidWavenumber, match="k = nan"):
                en.branch_eigenvalue(reference_medium, dsp.PlusInf(), k)
        with pytest.raises(InvalidWavenumber, match=r"got shape \(2, 2\)"):
            en.branch_eigenvalue(reference_medium, dsp.PlusInf(), np.ones((2, 2)))

    def test_few_rows_reach_the_full_solve(self, reference_medium, critical_medium, monkeypatch):
        # counts rows, times nothing
        counts = {"rows": 0, "full": 0}
        branch, full = en.branch_eigenvalue, en.certified_roots

        def counted_branch(medium, label, k):
            counts["rows"] += np.size(k)
            return branch(medium, label, k)

        def counted_full(rows):
            counts["full"] += len(rows)
            return full(rows)

        monkeypatch.setattr(en, "branch_eigenvalue", counted_branch)
        monkeypatch.setattr(en, "certified_roots", counted_full)
        en.verify_gamma_lf(reference_medium, 0.0)
        en.verify_gamma_hf(reference_medium, 2.0)
        en.verify_gamma_hf(critical_medium, 2.0)
        assert counts["rows"] > 0
        assert counts["full"] <= 0.01 * counts["rows"]

    def test_every_reference_hf_node_settles(self, reference_medium, monkeypatch):
        # the band-edge nodes (k 2.26-2.55) settle too: the disk is centred at the root
        settled = []
        newton = en.certified_root_near

        def recorded(rows, start):
            roots, ok = newton(rows, start)
            settled.append(ok)
            return roots, ok

        monkeypatch.setattr(en, "certified_root_near", recorded)
        report = en.verify_gamma_hf(reference_medium, 2.0)
        assert report.record.panels == 8
        assert np.concatenate(settled).tolist() == [True] * 384

    def test_zero_and_overflowing_rows_take_the_full_solve_pick(self, reference_medium,
                                                                monkeypatch):
        settled = []
        newton, solvable = en.certified_root_near, en._solvable_rows

        def recorded(rows, start):
            roots, ok = newton(rows, start)
            settled.append(ok)
            return roots, ok

        monkeypatch.setattr(en, "certified_root_near", recorded)
        # k = 0: Newton stays on the double origin root, which the full solve deflates
        expected = dsp.solve_dispersion(reference_medium, 0.0)
        assert en.branch_eigenvalue(reference_medium, dsp.Zero0(1), 0.0) == 0.0
        assert np.count_nonzero(expected == 0) == 2
        # rows scaled by 2^1000 have the same roots, and their scaled powers overflow
        monkeypatch.setattr(en, "_solvable_rows", lambda m, k: solvable(m, k) * 2.0**1000)
        ks = np.geomspace(100.0, 1000.0, 7)
        omega = en.branch_eigenvalue(reference_medium, dsp.PlusInf(), ks)
        np.testing.assert_array_equal(omega, _argmin_pick(reference_medium, dsp.PlusInf(), ks))
        assert [ok.tolist() for ok in settled] == [[False], [False] * 7]


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
        first = medium.diagnosed_bands
        assert medium.diagnosed_bands == first
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
        for p in (-0.5, np.nan, np.inf):
            with pytest.raises(ValueError, match="exponent must be nonnegative"):
                en.power_law(p, 0.1, 1.0)
        prof = en.power_law(2.0, 0.1, 1.0)
        assert prof(0.5) == pytest.approx(0.25)

    def test_infinite_band_edge_is_refused_typed(self, reference_medium):
        # an infinite k_max used to pass, and a run then overflowed in math.ceil(inf)
        band = r"profile band must satisfy 0 < k_min < k_max < inf$"
        for k_min, k_max in ((0.1, np.inf), (np.nan, 1.0), (0.1, np.nan), (np.inf, np.inf)):
            with pytest.raises(ValueError, match=band):
                en.RadialProfile(k_min, k_max, np.ones_like)
        with pytest.raises(ValueError, match=band):
            en.sobolev_tail(2.0, 3.6, 1.0, np.inf)
        with pytest.raises(ValueError, match=band):
            en.simulate_energy(reference_medium, en.power_law(0.0, 0.1, np.inf),
                               en.FixedRandomUnit(0), [1.0, 2.0])
        with pytest.raises(ValueError, match=band):
            en.verify_gamma_lf(reference_medium, 0.0, k_minus=np.inf)


class TestFitExponent:
    def test_pure_power_law_recovered_exactly(self):
        t = np.geomspace(1.0, 1e4, 81)
        gamma, conf = en.fit_exponent(t, t**-2.5, (1e2, 1e4))
        assert gamma == pytest.approx(2.5, abs=1e-10)
        assert conf < 1e-10

    @given(st.floats(0.2, 6.0), st.floats(0.1, 10.0))
    @settings(max_examples=50, deadline=None)
    def test_power_law_property(self, exponent, scale):
        t = np.geomspace(1.0, 1e4, 61)
        gamma, _ = en.fit_exponent(t, scale * t**-exponent, (1e2, 1e4))
        assert gamma == pytest.approx(exponent, rel=1e-9)

    def test_exponential_rejected(self):
        t = np.geomspace(1.0, 500.0, 61)
        with pytest.raises(NonPolynomialDecay):
            en.fit_exponent(t, np.exp(-t), (1e2, 500.0))

    def test_window_too_short(self):
        t = np.geomspace(1.0, 1e4, 10)
        energy = t**-1.0
        with pytest.raises(WindowTooShort):
            en.fit_exponent(t, energy, (5e3, 6e3))
        with pytest.raises(WindowTooShort):
            en.fit_exponent(t, energy, (1.0, 1e4))  # starts before the asymptotic regime
        with pytest.raises(WindowTooShort, match="energy vanished inside the fit window"):
            en.fit_exponent(t, np.where(t > 1e3, 0.0, energy), (1e2, 1e4))

    def test_closed_form_slope_matches_polyfit(self, request):
        # np.polyfit's least squares is the reference; the closed form sums in another order.
        # Each record is fitted over its last two decades, (t_max/100, t_max).
        names = ("lf_report_p0", "lf_report_p2", "hf_report_reference", "hf_report_critical")
        for report in map(request.getfixturevalue, names):
            t, energy = report.record.t_grid, report.record.energy
            gamma, _ = en.fit_exponent(t, energy, (t[-1] / 100, t[-1]))
            inside = t >= t[-1] / 100
            slope = np.polyfit(np.log(t[inside]), np.log(energy[inside]), 1)[0]
            assert abs(gamma + slope) <= 1e-12, report.tag

    def test_times_that_do_not_increase_refused(self):
        t, energy = np.array([100.0, 100.0, 100.0]), np.array([1.0, 0.5, 0.25])
        why = r"^sample 1 \(t=100, energy=0.5\) inside the fit window does not increase past t=100$"
        with pytest.raises(WindowTooShort, match=why):
            en.fit_exponent(t, energy, (100, 1000))

    @pytest.mark.parametrize("where", ["energy nan", "energy inf", "t inf"])
    def test_non_finite_sample_refused(self, where):
        t = np.geomspace(1.0, 1e4, 81)
        energy = t**-2.0
        if where == "t inf":
            t, energy = np.append(t, np.inf), np.append(energy, 1e-9)
            window, bad, place = (1e2, np.inf), 81, ""  # a t that is not finite is in no window
        else:
            energy[60:] = float(where.split()[1])
            window, bad, place = (1e2, 1e4), 60, " inside the fit window"
        why = rf"^sample {bad} \(t=.*\){place} is not finite$"
        with pytest.raises(WindowTooShort, match=why):
            en.fit_exponent(t, energy, window)

    @pytest.mark.parametrize("t, bad", [
        ([100.0, np.nan, 200.0, 400.0, 800.0], r"1 \(t=nan, energy=nan\)"),  # between window samples
        ([100.0, 200.0, 400.0, 800.0, np.inf], r"4 \(t=inf, energy=0\)"),  # past the window
        ([-np.inf, 100.0, 200.0, 400.0, 800.0], r"0 \(t=-inf, energy=0\)"),  # before it
    ])
    def test_non_finite_time_anywhere_refused(self, t, bad):
        t = np.array(t)
        with pytest.raises(WindowTooShort, match=rf"^sample {bad} is not finite$"):
            en.fit_exponent(t, t**-2, (100, 1000))


class TestGammaLF:
    def test_p0(self, lf_report_p0):
        assert 1.35 <= lf_report_p0.fitted <= 1.65

    def test_p2(self, lf_report_p2):
        assert 3.15 <= lf_report_p2.fitted <= 3.85

    def test_p1(self, reference_medium):
        report = en.verify_gamma_lf(reference_medium, 1.0)
        assert report.fitted == pytest.approx(2.5, abs=0.25)

    def test_discretization_independence(self, reference_medium, lf_report_p0):
        k_minus = reference_medium.diagnosed_bands[0]
        halved = en.verify_gamma_lf(reference_medium, 0.0, k_minus=k_minus / 2)
        assert abs(halved.fitted - lf_report_p0.fitted) <= 0.05


class TestGammaHF:
    def test_noncritical_m2(self, hf_report_reference):
        assert 1.8 <= hf_report_reference.fitted <= 2.2

    def test_critical_m2(self, hf_report_critical):
        assert 0.9 <= hf_report_critical.fitted <= 1.1

    def test_lossless_medium_refused_typed(self, undamped_medium):
        with pytest.raises(ExponentMismatch, match="no dissipation reaches the high band"):
            en.verify_gamma_hf(undamped_medium, 1.0)
        with pytest.raises(ExponentMismatch, match="no dissipation reaches the low band"):
            en.verify_gamma_lf(undamped_medium, 0.0)

    @pytest.mark.parametrize("band, param", [
        ("hf", 0.0), ("hf", -1.0), ("hf", np.nan), ("hf", np.inf), ("lf", np.nan), ("lf", np.inf),
    ])
    def test_run_parameter_refused_before_any_evaluation(
        self, reference_medium, reference_bands, monkeypatch, band, param
    ):
        def unreachable(*args, **kwargs):
            raise AssertionError("a refused run reached a root solve")

        monkeypatch.setattr(polyroots, "_newton", unreachable)
        monkeypatch.setattr(en, "branch_eigenvalue", unreachable)
        if band == "hf":
            with pytest.raises(ValueError, match=f"m must be finite and positive, got m={param}"):
                en.verify_gamma_hf(reference_medium, param)
        else:
            with pytest.raises(ValueError, match=f"nonnegative and finite, got p={param}"):
                en.verify_gamma_lf(reference_medium, param, reference_bands[0])

    def test_energy_times_target_power_bounded(self, hf_report_reference):
        # upper-bound side: E(t) * t^m stays bounded over the run's last two decades
        rec = hf_report_reference.record
        sel = rec.t_grid >= rec.t_grid[-1] / 100
        product = rec.energy[sel] * rec.t_grid[sel] ** 2.0
        assert product.max() <= 10.0 * product.min() + 1e-30
        assert product[-1] <= product[0]


def _alpha_medium(alpha):
    """critical_medium with magnetic damping alpha: weak and non-critical for alpha > 0."""
    return lm.new_medium(1, 1, [(1, 1, 0), (1, 1.5, 0.3)], [(1, 2, alpha)])


class TestSlowestHighBandBranch:
    """verify_gamma_hf runs on the slowest of PlusInf and the real poles' fans."""

    FIXTURES = (
        "reference_medium", "asymmetric_medium", "critical_medium", "wide_medium",
        "double_pole_medium", "ps_noncritical_medium", "electric_only_medium", "undamped_medium",
    )

    def test_rule_agrees_with_the_classification(self, survey_media, request):
        media = [request.getfixturevalue(name) for name in self.FIXTURES] + survey_media
        picked = {"strong": 0, "critical": 0, "lossless": 0}
        for medium in media:
            report = medium.check_assumptions()
            label, (sigma, p, _) = dsp._slowest_hf_branch(medium)
            if report.dissipation is lm.Dissipation.NONE:
                assert sigma == 0, medium
                # refused before any band is tracked
                with pytest.raises(ExponentMismatch, match="no dissipation reaches the high band"):
                    en.verify_gamma_hf(medium, 2.0)
                picked["lossless"] += 1
                continue
            assert sigma > 0, medium
            critical = report.criticality is lm.Criticality.CRITICAL
            assert (p == -4.0) == critical, medium
            picked["critical"] += critical
            if report.dissipation is lm.Dissipation.STRONG:
                assert label == dsp.PlusInf(), medium
                picked["strong"] += 1
        assert min(picked.values()) > 0, picked

    def test_decay_laws_from_the_expansion(self, ps_noncritical_medium, critical_medium):
        table = ps_noncritical_medium.asymptotic_coefficients()
        coef = table.for_pole(1.0)
        pole = next(f for e in ps_noncritical_medium.catalog.real_poles()
                    for f in dsp._pole_fans(e) if f.location == 1.0)
        sigma2, sigma4 = 2 * abs(coef.second_order.imag), 2 * abs(coef.fourth_order.imag)
        law = (sigma2, -2.0, math.sqrt(sigma4 / sigma2))
        assert dsp._decay_law(pole, table) == pytest.approx(law, rel=1e-15)
        c = table.vacuum_speed
        assert dsp._decay_law(dsp.PlusInf(), table) == (table.damped_coupling / c**2, -2.0, 0.0)
        assert dsp._decay_law(dsp.Zero0(1), table)[0] == 2 * abs(table.lf_second_order.imag)
        # critical: the pole is lossless at order k^-2, so its law is the k^-4 term
        label, (sigma, p, k_cross) = dsp._slowest_hf_branch(critical_medium)
        coef = critical_medium.asymptotic_coefficients().for_pole(label.location)
        assert coef.second_order.imag == 0.0
        assert (sigma, p, k_cross) == (2 * abs(coef.fourth_order.imag), -4.0, 0.0)

    def test_onset_past_the_crossover(self, ps_noncritical_medium):
        label, (sigma, p, k_cross) = dsp._slowest_hf_branch(ps_noncritical_medium)
        k_plus = ps_noncritical_medium.diagnosed_bands[1]
        assert isinstance(label, dsp.Pole) and k_cross > k_plus
        report = en.verify_gamma_hf(ps_noncritical_medium, 2.0)
        # t_max = 100 t_onset, with the onset (8 k_cross)^2 / sigma
        assert report.record.t_grid[-1] == 100.0 * ((8.0 * k_cross) ** 2 / sigma)
        assert report.tag == "hf(m=2,non-critical)"

    @pytest.mark.parametrize(
        "medium",
        [pytest.param("ps_noncritical_medium", id="ps_noncritical"),
         pytest.param("double_pole_medium", id="double_pole")]
        + [pytest.param(alpha, id=f"alpha={alpha:g}") for alpha in (0.3, 0.1, 0.03, 0.01)],
    )
    def test_weak_media_measure_the_slowest_root(self, medium, request):
        if isinstance(medium, str):
            medium = request.getfixturevalue(medium)
        else:
            medium = _alpha_medium(medium)
        label, _ = dsp._slowest_hf_branch(medium)
        assert isinstance(label, dsp.Pole)  # a real pole's fan decays slower than PlusInf
        k_plus = medium.diagnosed_bands[1]
        for k in (2 * k_plus, 10 * k_plus, 100 * k_plus):
            omega = en.branch_eigenvalue(medium, label, k)
            roots = dsp.solve_dispersion(medium, k)
            assert np.min(np.abs(roots - omega)) <= 1e-12 * abs(omega)
            assert omega.imag >= roots.imag.max() - 1e-12 * abs(omega)
            # and well apart from the PlusInf branch, which decays faster
            assert en.branch_eigenvalue(medium, dsp.PlusInf(), k).imag < 2 * omega.imag
        report = en.verify_gamma_hf(medium, 2.0)
        assert abs(report.fitted - 2.0) <= en.GAMMA_TOL * 2.0

    def test_far_crossover_refused_typed(self):
        # at alpha = 1e-4 (k_cross ~ 170) the run does not settle; the refusal names the
        # branch, k_cross and the onset it sets, and claims no cause for the miss
        medium = _alpha_medium(1e-4)
        label, (sigma, p, k_cross) = dsp._slowest_hf_branch(medium)
        t_onset = (8.0 * max(medium.diagnosed_bands[1], k_cross)) ** -p / sigma
        with pytest.raises(QuadratureNonconvergent) as info:
            en.verify_gamma_hf(medium, 2.0)
        message = str(info.value)
        assert message.startswith("energy quadrature not settled after ")
        assert f"hf branch {label}," in message
        assert f"k_cross={k_cross:g} (t_onset={t_onset:g})" in message
        assert round(k_cross, 1) == 170.4
        assert "takes over" not in message
        assert type(info.value.__cause__) is QuadratureNonconvergent


class TestExponentMismatch:
    """The shared exponent run raises on a fit outside GAMMA_TOL, read at call time."""

    @pytest.mark.parametrize(
        "name, run, param, tag",
        [
            ("reference_medium", en.verify_gamma_lf, 0.0, "tag=lf(p=0)"),
            ("reference_medium", en.verify_gamma_hf, 2.0, "tag=hf(m=2,non-critical)"),
            ("critical_medium", en.verify_gamma_hf, 2.0, "tag=hf(m=2,critical)"),
        ],
    )
    def test_tight_tolerance_raises_with_the_run_tag(self, name, run, param, tag, request,
                                                      monkeypatch):
        medium = request.getfixturevalue(name)
        monkeypatch.setattr(en, "GAMMA_TOL", 1e-9)
        with pytest.raises(ExponentMismatch) as info:
            run(medium, param)
        message = str(info.value)
        assert tag in message
        assert "MISMATCH" in message
        assert "tol=0%" in message

    def test_default_tolerance_in_the_report(self, lf_report_p0):
        assert lf_report_p0.ok
        assert "tol=10% " in lf_report_p0.text()
        assert f" t_max={lf_report_p0.record.t_grid[-1]:g} ok\n" in lf_report_p0.text()


class TestDecayExponent:
    """DecayRecord.exponent, -t E'/E at t_max of the accepted rule, and the table it reports."""

    @pytest.mark.parametrize("band", ["lf", "hf"])
    @pytest.mark.parametrize("name", ["reference_medium", "critical_medium"])
    def test_matches_the_log_derivative_of_the_same_call(self, name, band, request, monkeypatch):
        medium = request.getfixturevalue(name)
        calls, simulate = [], en.simulate_energy

        def recorded(*args):
            calls.append(args)
            return simulate(*args)

        monkeypatch.setattr(en, "simulate_energy", recorded)
        en.verify_gamma_lf(medium, 0.0) if band == "lf" else en.verify_gamma_hf(medium, 2.0)
        ((_, profile, rule, t_grid),) = calls
        h = 1e-3
        record = simulate(medium, profile, rule, t_grid[-1] * np.exp([-2 * h, -h, 0.0]))
        log_e = np.log(record.energy)
        # second-order one-sided difference of log E against log t at t_max
        expected = -(3 * log_e[2] - 4 * log_e[1] + log_e[0]) / (2 * h)
        assert abs(record.exponent - expected) <= 1e-6

    def test_propagated_record_has_none(self, reference_medium):
        assert en.convergence_to_zero(reference_medium, [1.0, 10.0]).exponent is None

    def test_vanished_energy_has_nan(self, reference_medium):
        # every trace underflows at t_max: E(t_max) = 0 leaves -t E'/E undefined, with no warning
        profile = en.power_law(0.0, 10.0, 100.0)
        rule = en.OptimalBranch(dsp.PlusInf())
        record = en.simulate_energy(reference_medium, profile, rule, [0.0, 1e12])
        assert record.energy[-1] == 0.0 and math.isnan(record.exponent)

    @pytest.mark.parametrize("name, band, param", [
        (name, band, param)
        for name in ("reference_medium", "critical_medium", "asymmetric_medium")
        for band, params in (("lf", (0, 1, 2, 3)), ("hf", (1, 2, 3)))
        for param in params
    ] + [("double_pole_medium", "hf", 1)])  # its Sobolev slack alone is 10 % of the target
    def test_table_within_a_hundredth_of_target(self, name, band, param, request):
        medium = request.getfixturevalue(name)
        run = en.verify_gamma_lf if band == "lf" else en.verify_gamma_hf
        report = run(medium, float(param))
        assert abs(report.fitted - report.target) <= 1e-2, report.text()


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

    def test_unknown_direction_rule_refused(self, reference_medium):
        with pytest.raises(ValueError, match="unknown direction rule 'random'"):
            en.simulate_energy(reference_medium, en.power_law(0.0, 0.1, 1.0), "random", [0.0])

    @pytest.mark.parametrize("t", [[], [np.nan], [0.0, np.inf], [1.0, 0.0], [-1.0, 0.0]])
    def test_bad_time_grid_refused_before_any_evaluation(self, reference_medium, monkeypatch, t):
        def unreachable(*args, **kwargs):
            raise AssertionError("a refused time grid reached an evaluation")

        monkeypatch.setattr(en, "branch_eigenvalue", unreachable)
        monkeypatch.setattr(en, "_propagated_traces", unreachable)
        profile = en.power_law(0.0, 0.1, 1.0)
        for rule in (en.OptimalBranch(dsp.Zero0(1)), en.FixedRandomUnit(0)):
            with pytest.raises(ValueError, match="t_grid must"):
                en.simulate_energy(reference_medium, profile, rule, t)
        if not t:
            with pytest.raises(ValueError, match="t_grid must hold at least one time"):
                en.convergence_to_zero(reference_medium, t)

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
