"""Acceptance criteria: one test per criterion, each printing a pass/fail line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines on the terminal.
"""

import numpy as np
import pytest
import scipy.linalg

import lorentzmodes as lm
from lorentzmodes import dispersion as dsp
from lorentzmodes import energy as en
from lorentzmodes import evolution as evo
from lorentzmodes import operators as ops
from lorentzmodes.errors import AssumptionViolated, NearSingularEvaluation


def verdict(number: int, description: str, ok: bool, detail: str = ""):
    line = f"criterion {number:02d} [{description}]: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def random_media(seed, count):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        n_e = int(rng.integers(0, 3))
        n_m = int(rng.integers(0, 3))
        if n_e + n_m == 0:
            continue

        def osc(n):
            res = np.sort(rng.uniform(0.3, 3.0, n) + rng.uniform(0, 0.2, n))
            return [
                (
                    float(rng.uniform(0.3, 2.0)),
                    float(r),
                    float(0.0 if rng.random() < 0.3 else rng.uniform(0.01, 0.5)),
                )
                for r in res
            ]

        out.append(
            lm.new_medium(
                float(rng.uniform(0.5, 2.0)),
                float(rng.uniform(0.5, 2.0)),
                osc(n_e),
                osc(n_m),
            )
        )
    return out


def test_criterion_01_spectrum_oracle():
    rng = np.random.default_rng(101)
    media = random_media(202, 50)
    worst = 0.0
    for medium in media:
        k = float(10 ** rng.uniform(-3, 3))
        roots = dsp.solve_dispersion(medium, k)
        op = ops.build_perp_operator(medium, k)
        eigs = list(scipy.linalg.eigvals(op.matrix))
        for r in roots:
            for _ in range(2):
                j = int(np.argmin(np.abs(np.array(eigs) - r)))
                worst = max(worst, abs(eigs[j] - r) / (1.0 + abs(r)))
                eigs.pop(j)
        assert not eigs
    verdict(
        1,
        "companion roots = doubled operator eigenvalues, 50 random media",
        worst <= 1e-8,
        f"worst relative deviation {worst:.2e}",
    )


def test_criterion_02_resolvent_formula(
    reference_medium, critical_medium, double_pole_medium
):
    rng = np.random.default_rng(303)
    media = [reference_medium, critical_medium, double_pole_medium]
    checked, worst = 0, 0.0
    while checked < 100:
        medium = media[checked % 3]
        k = float(10 ** rng.uniform(-2, 2))
        w = complex(rng.uniform(-4, 4), rng.uniform(-2.5, 2.5))
        try:
            r = ops.resolvent_formula(medium, k, w)
        except NearSingularEvaluation:
            continue
        op = ops.build_perp_operator(medium, k)
        dense = np.linalg.inv(op.matrix - w * np.eye(op.dim))
        worst = max(
            worst, np.linalg.norm(r - dense, 2) / np.linalg.norm(dense, 2)
        )
        checked += 1
    verdict(
        2,
        "explicit resolvent vs dense inverse at 100 admissible points",
        worst <= 1e-9,
        f"worst relative deviation {worst:.2e}",
    )


def test_criterion_03_dissipation_and_contraction(reference_medium, critical_medium):
    rng = np.random.default_rng(404)
    worst_identity = 0.0
    for i in range(100):
        medium = reference_medium if i % 2 == 0 else critical_medium
        k = float(10 ** rng.uniform(-2, 2))
        op = ops.build_perp_operator(medium, k)
        lay = op.layout
        u = rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim)
        lhs = op.inner(op.matrix @ u, u).imag
        rhs = 0.0
        for j, osc in enumerate(medium.electric):
            rhs -= (
                medium.eps0 / 2 * osc.damping * osc.coupling**2
                * float(np.sum(np.abs(u[lay.pdot(j)]) ** 2))
            )
        for l, osc in enumerate(medium.magnetic):
            rhs -= (
                medium.mu0 / 2 * osc.damping * osc.coupling**2
                * float(np.sum(np.abs(u[lay.mdot(l)]) ** 2))
            )
        worst_identity = max(
            worst_identity, abs(lhs - rhs) / float(np.sum(np.abs(u) ** 2))
        )
    contraction_ok = True
    for k in (0.01, 0.8, 35.0):
        op = ops.build_perp_operator(reference_medium, k)
        for t in (0.5, 3.0, 20.0):
            e = scipy.linalg.expm(-1j * op.matrix * t)
            contraction_ok &= op.operator_norm(e) <= 1.0 + 1e-10
    verdict(
        3,
        "exact dissipation identity and semigroup contraction",
        worst_identity <= 1e-12 and contraction_ok,
        f"identity defect {worst_identity:.2e}",
    )


def test_criterion_04_hf_asymptotics(reference_medium):
    table = reference_medium.asymptotic_coefficients()
    k = 1e3
    roots = dsp.solve_dispersion(reference_medium, k)
    w = roots[np.argmax(roots.real)]
    im_target = -table.damped_coupling / (2 * table.vacuum_speed**2)
    re_target = table.total_coupling / (2 * table.vacuum_speed * k)
    im_ok = abs(w.imag * k**2 - im_target) <= 0.05 * abs(im_target)
    re_ok = abs((w.real - table.vacuum_speed * k) - re_target) <= 0.05 * abs(re_target)
    verdict(
        4,
        "unbounded-branch expansion at k=1e3",
        im_ok and re_ok,
        f"Im*k^2={w.imag * k**2:.5f} (target {im_target}), "
        f"Re-ck={w.real - k:.3e} (target {re_target:.3e})",
    )


def test_criterion_05_critical_rate_law(critical_medium, ps_noncritical_medium):
    def pole_im(medium, pole, k, power):
        roots = dsp.solve_dispersion(medium, k)
        w = roots[np.argmin(np.abs(roots - pole))]
        return w.imag * k**power

    # critical branch obeys the quartic law
    vals4 = [pole_im(critical_medium, 1.0, k, 4.0) for k in (200.0, 400.0)]
    crit_ok = (
        vals4[0] < 0
        and vals4[1] < 0
        and abs(vals4[0] / vals4[1] - 1.0) <= 0.15
    )
    # a non-critical simple real pole obeys the quadratic law
    vals2 = [pole_im(ps_noncritical_medium, 1.0, k, 2.0) for k in (200.0, 400.0)]
    nc_ok = vals2[0] < 0 and abs(vals2[0] / vals2[1] - 1.0) <= 0.15
    verdict(
        5,
        "critical quartic vs non-critical quadratic pole rate law",
        crit_ok and nc_ok,
        f"quartic ratio {vals4[0] / vals4[1]:.4f}, quadratic ratio {vals2[0] / vals2[1]:.4f}",
    )


def test_criterion_06_double_pole_splitting(double_pole_medium):
    table = double_pole_medium.asymptotic_coefficients()
    k = 1e3
    roots = dsp.solve_dispersion(double_pole_medium, k)
    near = np.sort_complex(roots[np.abs(roots - 1.0) < 0.1])
    assert len(near) == 2
    gap = abs(near[1] - near[0])
    target = 2.0 * table.for_pole(1.0 + 0j).split / k  # coupling product / c / k
    ok = abs(gap - target) <= 0.10 * target
    verdict(
        6,
        "double-pole branch splitting at k=1e3",
        ok,
        f"gap {gap:.6e}, target {target:.6e}",
    )


def test_criterion_07_lf_asymptotics(reference_medium, critical_medium):
    table = reference_medium.asymptotic_coefficients()
    k = 1e-3
    roots = dsp.solve_dispersion(reference_medium, k)
    two = np.sort_complex(roots[np.argsort(np.abs(roots))[:2]])
    slopes = sorted((two / k).real)
    slope_ok = abs(slopes[0] + table.static_speed) <= 0.01 * table.static_speed and abs(
        slopes[1] - table.static_speed
    ) <= 0.01 * table.static_speed

    zs_ok = True
    ztable = critical_medium.asymptotic_coefficients()
    for coef in ztable.simple_zeros:
        zk = 1e-2
        roots = dsp.solve_dispersion(critical_medium, zk)
        w = roots[np.argmin(np.abs(roots - coef.zero))]
        measured = (w - coef.zero) / zk**2
        zs_ok &= abs(measured - coef.curvature) <= 0.10 * abs(coef.curvature)
        zs_ok &= coef.curvature.imag < 0
    verdict(
        7,
        "origin-branch slopes and simple-zero curvature",
        slope_ok and zs_ok,
        f"slopes {slopes[0]:.6f}/{slopes[1]:.6f} vs +-{table.static_speed:.6f}",
    )


def _sweep_all_branches(medium, branches):
    table = medium.asymptotic_coefficients()
    k_minus, k_plus = dsp.diagnose_bands(branches, table)
    grid_max = branches[0].k[-1]
    grid_min = branches[0].k[0]
    worst_ratio, worst_trend = 1.0, -np.inf
    for b in branches:
        for band in (
            np.geomspace(k_plus, min(100 * k_plus, grid_max), 10),
            np.geomspace(max(k_minus / 100, grid_min), k_minus, 10),
        ):
            sweep = ops.projector_norm_sweep(medium, b, band)
            norms = [v for _, v, _ in sweep]
            worst_ratio = max(worst_ratio, max(norms) / min(norms))
            worst_trend = max(worst_trend, np.polyfit(np.log(band), np.log(norms), 1)[0])
    return worst_ratio, worst_trend


def test_criterion_08_projector_sweeps(
    reference_medium,
    reference_branches,
    critical_medium,
    critical_branches,
    double_pole_medium,
    double_pole_branches,
):
    ratios, trends = [], []
    for medium, branches in (
        (reference_medium, reference_branches),
        (critical_medium, critical_branches),
        (double_pole_medium, double_pole_branches),
    ):
        r, t = _sweep_all_branches(medium, branches)
        ratios.append(r)
        trends.append(t)
    # cross-method agreement at a handful of eigenvalues
    agree = 0.0
    for medium, k in (
        (reference_medium, 1.0),
        (critical_medium, 0.7),
        (double_pole_medium, 2.4),
    ):
        op = ops.build_perp_operator(medium, k)
        dec = op.eigen
        for w, p_eig in list(zip(dec.eigenvalues, dec.projectors))[:3]:
            p_cont = ops.projector_contour(medium, k, w)
            agree = max(agree, float(np.linalg.norm(p_cont - p_eig, 2)))
    ok = max(ratios) < 10.0 and max(trends) <= 0.1 and agree <= 1e-8
    verdict(
        8,
        "projector sweeps bounded on both bands, contour agrees with eigen",
        ok,
        f"max norm ratio {max(ratios):.2f}, max trend {max(trends):.3f}, "
        f"contour defect {agree:.1e}",
    )


def test_criterion_09_midband_rate(reference_medium, reference_bands):
    k_minus, k_plus = reference_bands
    fit = evo.midband_rate(reference_medium, (k_minus, k_plus), samples=16)
    ok = fit.rate_constant > 0 and fit.residual <= 0.10
    verdict(
        9,
        "uniform positive mid-band rate matching the spectral abscissa",
        ok,
        f"beta={fit.rate_constant:.5f}, deviation {fit.residual:.2%}",
    )


def test_criterion_10_global_exponents(
    lf_report_p0, lf_report_p2, hf_report_reference, hf_report_critical
):
    checks = [
        (1.35 <= lf_report_p0.fitted <= 1.65, "lf p=0", lf_report_p0),
        (3.15 <= lf_report_p2.fitted <= 3.85, "lf p=2", lf_report_p2),
        (1.8 <= hf_report_reference.fitted <= 2.2, "hf m=2", hf_report_reference),
        (0.9 <= hf_report_critical.fitted <= 1.1, "hf critical m=2", hf_report_critical),
    ]
    detail = ", ".join(
        f"{name}: {rep.fitted:.3f} in {rep.runtime:.0f}s" for _, name, rep in checks
    )
    runtime_ok = all(rep.runtime < 300.0 for _, _, rep in checks)
    verdict(
        10,
        "optimal polynomial decay exponents by simulation and fit",
        all(ok for ok, _, _ in checks) and runtime_ok,
        detail,
    )


def test_criterion_11_puiseux_engine(reference_medium, reference_branches):
    table = reference_medium.asymptotic_coefficients()
    fans = sorted(
        (reference_medium._branch_series(0.0 + 0.0j, 2, n=n, terms=2)[0] for n in (1, 2)),
        key=lambda x: x[0].real,
    )
    c0 = table.static_speed
    first = [x[0] for x in fans]
    fan_ok = abs(first[0] + c0) <= 1e-6 and abs(first[1] - c0) <= 1e-6
    residue = reference_medium.catalog.origin.residue
    roots_ok = all(abs((1.0 / a) ** 2 - residue) <= 1e-10 * abs(residue) for a in first)

    curv_ok = True
    for b in reference_branches:
        if not isinstance(b.lf_label, dsp.Zero0):
            continue
        sign = -1.0 if b.lf_label.index == 1 else 1.0
        k = b.k[5]
        measured = (b.omega[5] - sign * c0 * k) / k**2
        predicted = fans[0][1]
        curv_ok &= abs(measured - predicted) <= 0.10 * abs(predicted)
    verdict(
        11,
        "Puiseux fans: square roots of the origin residue, +-c0 slopes, branch curvature",
        roots_ok and fan_ok and curv_ok,
        f"first orders {first[0]:.6f}, {first[1]:.6f}",
    )


def test_criterion_12_negative_controls(undamped_medium, h1_violation_medium,
                                        h2_violation_medium):
    im_max = max(
        float(np.max(np.abs(dsp.solve_dispersion(undamped_medium, k).imag)))
        for k in (0.05, 0.4, 2.5, 40.0)
    )
    profile = en.power_law(0.0, 0.3, 0.7)
    record = en.simulate_energy(
        undamped_medium, profile, en.FixedRandomUnit(2), np.linspace(0, 100, 9)
    )
    energy_drift = float(np.max(np.abs(record.energy / record.energy[0] - 1.0)))

    raised = 0
    for bad in (h1_violation_medium, h2_violation_medium):
        with pytest.raises(AssumptionViolated):
            _ = bad.catalog
        raised += 1
        with pytest.raises(AssumptionViolated):
            bad.asymptotic_coefficients()
        raised += 1
    ok = im_max < 1e-9 and energy_drift < 1e-9 and raised == 4
    verdict(
        12,
        "conservative controls and loud assumption violations",
        ok,
        f"max |Im| {im_max:.1e}, energy drift {energy_drift:.1e}",
    )
