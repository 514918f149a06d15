"""Acceptance suite: every quantitative exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or on
failure).  Criteria:

 1. resonance tables at m* = 0.067, with the single-mass-scan fallback
 2. buildup law collapse, max |ratio - law| < 1e-2 on tau in [0.5, 8]
 3. fitted time constant tau_0 = 2.00 +- 0.05 for every configuration
 4. ln delta slope -0.50 +- 0.02 and onset ordering with sharpness
 5. post-onset remainder envelope ~ tau^{-1/2} (exponent -0.5 +- 0.1)
 6. special functions: Faddeeva <= 1e-13 vs mpmath, symmetry identity
    residual < 1e-11, asymptotics within the first-omitted-term bound
 7. oracle equivalences: one-pole full == single (1e-14), one-term wave
    error < 5% (ground state), unitarity to 1e-10 on 1e3 energies
 8. stationary limit: |ratio^2 - 1| <= 1e-3 for tau >= 40, all configs
"""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest

from rtbuildup import (
    build_profile,
    buildup_decomposition,
    detect_onset,
    evolve_full,
    evolve_single_resonance,
    exponential_law,
    faddeeva,
    find_poles,
    fit_envelope_exponent,
    fit_time_constant,
    moshinsky_asymptotic,
    moshinsky_m,
    normalize_buildup,
    one_term_phi,
    stationary_state,
    stationary_wave,
)

mp.mp.dps = 35

KNOWN_SYMMETRIC = [(37.8, 0.12), (149.2, 1.40), (325.7, 8.60)]
KNOWN_ASYMMETRIC = [(89.1, 2.4)]
EPS_TOL_MEV = 0.15
GAMMA_TOL_MEV = 0.05


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"{criterion}: {detail}"


def resonance_deviations(mass_factor):
    sym = build_profile([(30, 0.5), (100, 0.0), (30, 0.5)], mass_factor=mass_factor)
    asym = build_profile([(30, 0.3), (50, 0.0), (100, 0.3)], mass_factor=mass_factor)
    # slice to the tabulated states; a slightly heavier carrier can pull the
    # asymmetric structure's second resonance under the search ceiling
    states = find_poles(sym, 0.4)[:3] + find_poles(asym, 0.3)[:1]
    table = KNOWN_SYMMETRIC + KNOWN_ASYMMETRIC
    assert len(states) == len(table)
    return [
        (s.eps_mev - eps, s.gamma_mev - gam) for s, (eps, gam) in zip(states, table)
    ]


def within_table_tolerance(devs):
    return all(abs(de) <= EPS_TOL_MEV and abs(dg) <= GAMMA_TOL_MEV for de, dg in devs)


@pytest.fixture(scope="module")
def series_bundle(reference_configs):
    """Shared dense series for criteria 2, 3, 4, 5, 8."""
    bundle = {}
    for label, profile, state, x in reference_configs:
        tau = np.linspace(0.25, 60.0, 120001)
        sol = evolve_single_resonance(profile, state, state.eps_ev, x, t_fs=tau * state.lifetime_fs)
        bundle[label] = (profile, state, x, sol, normalize_buildup(sol, state))
    return bundle


def normalized_score(mass_factor) -> float:
    """Worst deviation from the tables, in units of the stated tolerances."""
    devs = resonance_deviations(float(mass_factor))
    return max(
        max(abs(de) / EPS_TOL_MEV for de, _ in devs),
        max(abs(dg) / GAMMA_TOL_MEV for _, dg in devs),
    )


def test_criterion_1_resonance_tables():
    devs = resonance_deviations(0.067)
    if within_table_tolerance(devs):
        report("1 (resonance tables)", True, "all seven values reproduced at m* = 0.067")
        return
    worst = max(max(abs(de) for de, _ in devs), max(abs(dg) for _, dg in devs))
    print(
        f"  m* = 0.067 leaves a worst table deviation of {worst:.3f} meV; "
        "scanning for a single best mass"
    )
    coarse = np.arange(0.0660, 0.06805, 2e-4)
    scores = [normalized_score(m) for m in coarse]
    i = int(np.argmin(scores))
    from scipy.optimize import minimize_scalar

    res = minimize_scalar(
        normalized_score,
        bounds=(coarse[max(0, i - 1)], coarse[min(len(coarse) - 1, i + 1)]),
        method="bounded",
        options={"xatol": 1e-5},
    )
    best_mass, best_score = float(res.x), float(res.fun)
    ok = within_table_tolerance(resonance_deviations(best_mass))
    report(
        "1 (resonance tables)",
        ok,
        f"single m* = {best_mass:.5f} reproduces all seven values simultaneously "
        f"(worst deviation {best_score:.2f} in tolerance units; documented in README)",
    )


def test_criterion_2_buildup_law(series_bundle):
    worst_label, worst = None, 0.0
    for label, (_p, _s, _x, _sol, series) in series_bundle.items():
        window = (series.tau >= 0.5) & (series.tau <= 8.0)
        dev = float(
            np.max(np.abs(series.ratio_abs[window] - exponential_law(series.tau[window])))
        )
        if dev > worst:
            worst_label, worst = label, dev
    report(
        "2 (buildup law)",
        worst < 1e-2,
        f"max | |Psi/phi| - (1 - e^(-tau/2)) | = {worst:.2e} ({worst_label}) < 1e-2",
    )


def test_criterion_3_time_constant(series_bundle):
    values = {}
    for label, (_p, _s, _x, _sol, series) in series_bundle.items():
        values[label] = fit_time_constant(series).tau0
    ok = all(abs(v - 2.0) <= 0.05 for v in values.values())
    detail = ", ".join(f"{k}: {v:.4f}" for k, v in values.items())
    report("3 (time constant)", ok, f"tau_0 in lifetimes: {detail} (2.00 +- 0.05)")


def test_criterion_4_crossover(series_bundle):
    slopes, onsets = {}, {}
    for label in ("sym-n1", "sym-n3"):
        _p, state, _x, _sol, series = series_bundle[label]
        rep = detect_onset(series)
        slopes[label] = rep.fit_slope
        onsets[label] = rep.tau_onset
    slope_ok = all(abs(s + 0.5) <= 0.02 for s in slopes.values())
    order_ok = onsets["sym-n1"] > onsets["sym-n3"]
    report(
        "4 (crossover)",
        slope_ok and order_ok,
        f"ln delta slopes {slopes['sym-n1']:.4f}/{slopes['sym-n3']:.4f} (-0.50 +- 0.02); "
        f"tau_onset {onsets['sym-n1']:.1f} (R~315) > {onsets['sym-n3']:.1f} (R~38)",
    )


def test_criterion_5_post_onset_tail(series_bundle):
    exponents = {}
    for label in ("sym-n1", "sym-n3"):
        _p, state, _x, sol, series = series_bundle[label]
        onset = detect_onset(series).tau_onset
        dec = buildup_decomposition(sol, state)
        window = dec.tau >= onset + 4.0
        exponents[label] = fit_envelope_exponent(
            dec.tau[window], np.abs(dec.remainder[window]) / dec.phi_abs2
        )
    ok = all(abs(e + 0.5) <= 0.1 for e in exponents.values())
    detail = ", ".join(f"{k}: {v:.3f}" for k, v in exponents.items())
    report("5 (post-onset tail)", ok, f"remainder envelope exponents {detail} (-0.5 +- 0.1)")


def test_criterion_6_special_functions():
    rng = np.random.default_rng(42)
    n = 1000
    radius = 10.0 ** rng.uniform(-3, 2, n)
    angle = rng.uniform(0.0, np.pi, n)
    zs = radius * np.cos(angle) + 1j * radius * np.sin(angle)
    worst_w = 0.0
    for z in zs:
        zm = mp.mpc(z.real, z.imag)
        ref = complex(mp.e ** (-(zm**2)) * mp.erfc(-1j * zm))
        worst_w = max(worst_w, abs(faddeeva(complex(z)) - ref) / abs(ref))

    worst_sym = 0.0
    for r in np.geomspace(1e-3, 30.0, 31):
        for phase in np.arange(16) / 16.0 * 2.0 * np.pi:
            y = r * cmath.exp(1j * phase)
            # (mantissa, log_scale) pairs: exp(y^2) reaches e^900 on this grid
            (m_pos, s_pos), (m_neg, s_neg) = moshinsky_m(y, scaled=True), moshinsky_m(-y, scaled=True)
            yy = y * y
            common = max(s_pos, s_neg, yy.real)
            terms = (m_pos * math.exp(s_pos - common), m_neg * math.exp(s_neg - common))
            rhs = cmath.exp(yy - common)
            largest = max(abs(terms[0]), abs(terms[1]), abs(rhs))
            worst_sym = max(worst_sym, abs(sum(terms) - rhs) / largest)

    asym_ok = True
    for r in (8.0, 10.0, 14.0, 20.0, 40.0, 100.0):
        for phase in np.linspace(-1.4, 1.4, 9):
            y = r * cmath.exp(1j * phase)
            for terms in (2, 3, 4):
                approx, bound = moshinsky_asymptotic(y, terms)
                err = abs(approx - moshinsky_m(y))
                asym_ok &= err <= 1.05 * bound + 1e-15 * abs(moshinsky_m(y))

    ok = worst_w <= 1e-13 and worst_sym < 1e-11 and asym_ok
    report(
        "6 (special functions)",
        ok,
        f"faddeeva vs high-precision erfc: {worst_w:.2e} (<= 1e-13); "
        f"symmetry identity residual: {worst_sym:.2e} (< 1e-11); "
        f"asymptotics within first-omitted-term bound: {asym_ok}",
    )


def test_criterion_7_oracle_equivalences(symmetric_profile, symmetric_poles):
    st1 = symmetric_poles[0]
    tau = np.geomspace(0.05, 40.0, 2000)
    single = evolve_single_resonance(symmetric_profile, st1, st1.eps_ev, 80.0, t_fs=tau * st1.lifetime_fs)
    one_pole = evolve_full(symmetric_profile, [st1], st1.eps_ev, 80.0, t_fs=tau * st1.lifetime_fs)
    equiv = float(np.max(np.abs(single.psi - one_pole.psi)) / np.max(np.abs(single.psi)))

    errors = []
    for state, x in zip(symmetric_poles, (80.0, 48.0, 80.0)):
        full = stationary_wave(symmetric_profile, state.eps_ev, x)
        errors.append(abs(one_term_phi(state, state.eps_ev, x) - full) / abs(full))

    worst_unitarity = 0.0
    for e in np.linspace(0.001, 0.45, 1000):
        s = stationary_state(symmetric_profile, e)
        worst_unitarity = max(
            worst_unitarity,
            abs(
                abs(s.transmission_amplitude) ** 2
                + abs(s.reflection_amplitude) ** 2
                - 1.0
            ),
        )

    ok = (
        equiv <= 1e-14
        and errors[0] < 0.05
        and errors[0] < errors[1] < errors[2]
        and worst_unitarity <= 1e-10
    )
    report(
        "7 (oracle equivalences)",
        ok,
        f"one-pole full vs single: {equiv:.1e} (<= 1e-14); one-term wave errors "
        f"{errors[0]:.1e} < {errors[1]:.1e} < {errors[2]:.1e} (ground < 5%, rising); "
        f"unitarity: {worst_unitarity:.1e} (<= 1e-10)",
    )


def test_criterion_8_stationary_limit(series_bundle):
    worst_label, worst = None, 0.0
    for label, (_p, _s, _x, _sol, series) in series_bundle.items():
        window = series.tau >= 40.0
        dev = float(np.max(np.abs(series.ratio_abs2[window] - 1.0)))
        if dev > worst:
            worst_label, worst = label, dev
    report(
        "8 (stationary limit)",
        worst <= 1e-3,
        f"max | |Psi/phi|^2 - 1 | for tau >= 40: {worst:.2e} ({worst_label}) <= 1e-3",
    )
