import cmath
import math
import multiprocessing
import os
import sys
import threading
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rtbuildup.dynamics
from rtbuildup import (
    HBAR_EV_FS,
    build_profile,
    buildup_decomposition,
    evolve_full,
    evolve_single_resonance,
    fit_envelope_exponent,
    find_poles,
    normalize_buildup,
    stationary_wave,
)
from rtbuildup.dynamics import _NODES, _Rays
from rtbuildup.moshinsky import EXP_MINUS_IPI4, Y_FAR, Y_NEAR, _moshinsky_m_grid
from rtbuildup.scattering import stationary_state


def evolve_all_poles(profile, poles, state, x, tau):
    return evolve_full(profile, poles, state.eps_ev, x, t_fs=tau * state.lifetime_fs)


def test_grid_validation(symmetric_profile, symmetric_poles):
    st = symmetric_poles[0]
    with pytest.raises(ValueError):
        evolve_single_resonance(symmetric_profile, st, st.eps_ev, 80.0, t_fs=np.array([0.0, 1.0]) * st.lifetime_fs)
    with pytest.raises(ValueError):
        evolve_single_resonance(symmetric_profile, st, st.eps_ev, 80.0, t_fs=np.array([2.0, 1.0]) * st.lifetime_fs)
    with pytest.raises(ValueError):
        evolve_single_resonance(symmetric_profile, st, st.eps_ev, 200.0, t_fs=np.array([1.0]) * st.lifetime_fs)
    for t_fs in (np.array([]), np.ones((2, 2))):
        with pytest.raises(ValueError, match="time grid must be a non-empty 1-D array"):
            evolve_single_resonance(symmetric_profile, st, st.eps_ev, 80.0, t_fs=t_fs)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["t_fs-nan", "t_fs-inf", "t_fs--inf"])
def test_grid_rejects_non_finite_times(symmetric_profile, symmetric_poles, bad):
    st = symmetric_poles[0]
    with pytest.raises(ValueError):
        evolve_single_resonance(symmetric_profile, st, st.eps_ev, 80.0, t_fs=[1.0, bad])
    with pytest.raises(ValueError):
        evolve_full(symmetric_profile, symmetric_poles, 0.2, 80.0, t_fs=[bad])


@pytest.mark.parametrize("energy_ev", [np.nan, np.inf, 0.0, -0.1])
def test_evolve_rejects_energy_outside_zero_to_inf(symmetric_profile, symmetric_poles, energy_ev):
    st = symmetric_poles[0]
    with pytest.raises(ValueError):
        evolve_full(symmetric_profile, symmetric_poles, energy_ev, 80.0, t_fs=[1.0, 2.0])
    with pytest.raises(ValueError):
        evolve_single_resonance(symmetric_profile, st, energy_ev, 80.0, t_fs=[1.0, 2.0])


@pytest.mark.parametrize("energy_ev", [1e-18, 1e-30])
def test_evolve_at_a_tiny_energy_forms_no_non_finite_moment(symmetric_profile, symmetric_poles, energy_ev):
    """The free pair's c^-(2j+1) overflows here; its far band lies past the grid, so Psi is finite, with no warning."""
    tau = np.geomspace(0.01, 50.0, 5)
    nearest = min(symmetric_poles, key=lambda s: abs(s.eps_ev - energy_ev))
    sol = evolve_full(symmetric_profile, symmetric_poles, energy_ev, 80.0, t_fs=tau * nearest.lifetime_fs)
    assert np.all(np.isfinite(sol.psi))


@pytest.mark.parametrize("energy_ev, t_fs", [
    (1e-17, [1.0, 4.22e18, 4.30e18, 5.10e18]),
    (1e-20, [1.0, 4.2e21, 4.3e21, 5.0e21]),
])
def test_far_moments_past_the_double_range_are_summed_in_scaled_units(symmetric_profile, symmetric_poles,
                                                                        energy_ev, t_fs):
    """Points just past |y_k| = 8 on the free pair, whose c^-(2j+1) overflows: no warning, no NaN."""
    sol = evolve_full(symmetric_profile, symmetric_poles, energy_ev, 80.0, t_fs=t_fs)
    psi = whole_grid_pole_sum(symmetric_profile, symmetric_poles, energy_ev, 80.0, t_fs)
    assert np.all(np.isfinite(sol.psi))
    assert np.max(np.abs(sol.psi - psi)) <= 1e-15 * np.max(np.abs(psi))


def test_evolutions_refuse_poles_of_another_profile(symmetric_profile, asymmetric_profile, symmetric_poles,
                                                    asymmetric_poles):
    pole = asymmetric_poles[0]
    with pytest.raises(ValueError, match="pole of the profile evolved"):
        evolve_full(symmetric_profile, asymmetric_poles, 0.2, 80.0, t_fs=[1.0, 2.0])
    with pytest.raises(ValueError, match="pole of the profile evolved"):
        evolve_single_resonance(symmetric_profile, pole, pole.eps_ev, 80.0, t_fs=[1.0, 2.0])
    # the carrier mass is part of the structure
    heavier = build_profile(symmetric_profile.segments, 0.0670001)
    with pytest.raises(ValueError, match="pole of the profile evolved"):
        evolve_full(heavier, symmetric_poles, 0.2, 80.0, t_fs=[1.0, 2.0])
    # an equal profile built anew is the same structure
    same = build_profile(symmetric_profile.segments, symmetric_profile.mass_factor)
    a = evolve_full(symmetric_profile, symmetric_poles, 0.2, 80.0, t_fs=[1.0, 2.0])
    b = evolve_full(same, symmetric_poles, 0.2, 80.0, t_fs=[1.0, 2.0])
    assert np.array_equal(a.psi, b.psi)


def test_rejects_far_off_resonance_energy(symmetric_profile, symmetric_poles):
    st = symmetric_poles[0]
    with pytest.raises(ValueError):
        evolve_single_resonance(symmetric_profile, st, 2.0 * st.eps_ev, 80.0, t_fs=np.array([1.0]) * st.lifetime_fs)


def test_far_off_resonance_refusal_gives_the_width_ratio_in_three_digits(symmetric_profile, symmetric_poles):
    st = symmetric_poles[0]
    with pytest.raises(ValueError, match=r"is \d\.\d\de\+\d+ widths away") as refusal:
        evolve_single_resonance(symmetric_profile, st, 1e300, 80.0, t_fs=np.array([1.0]) * st.lifetime_fs)
    assert len(str(refusal.value)) < 200


def test_single_pole_full_equals_single_resonance(symmetric_profile, symmetric_poles):
    st = symmetric_poles[0]
    tau = np.geomspace(0.05, 30.0, 300)
    a = evolve_single_resonance(symmetric_profile, st, st.eps_ev, 80.0, t_fs=tau * st.lifetime_fs)
    b = evolve_all_poles(symmetric_profile, [st], st, 80.0, tau)
    assert np.max(np.abs(a.psi - b.psi)) <= 1e-14 * np.max(np.abs(a.psi))


def test_monotone_buildup_all_configurations(reference_configs):
    """|Psi|^2 is grid-wise non-decreasing through the buildup window.

    Past the crossover the algebraic remainder superimposes an oscillation
    of ~1e-4 relative amplitude, so strict monotonicity extends to the
    onset (~12 lifetimes for the broadest states), not arbitrarily far.
    """
    tau = np.geomspace(0.01, 50.0, 400)
    for label, profile, state, x in reference_configs:
        sol = evolve_single_resonance(profile, state, state.eps_ev, x, t_fs=tau * state.lifetime_fs)
        window = (tau >= 0.1) & (tau <= 12.0)
        increments = np.diff(sol.abs2[window])
        assert np.min(increments) > -1e-9 * np.max(sol.abs2), label


def test_monotone_buildup_extends_for_sharp_states(reference_configs):
    tau = np.geomspace(0.01, 50.0, 400)
    for label, profile, state, x in reference_configs[:2]:  # R > 100
        sol = evolve_single_resonance(profile, state, state.eps_ev, x, t_fs=tau * state.lifetime_fs)
        window = (tau >= 0.1) & (tau <= 20.0)
        increments = np.diff(sol.abs2[window])
        assert np.min(increments) > -1e-9 * np.max(sol.abs2), label


def test_stationary_limit(reference_configs):
    # the broadest state still carries a ~2e-4 oscillatory remainder at tau = 40
    tau = np.linspace(40.0, 44.0, 50)
    for label, profile, state, x in reference_configs:
        sol = evolve_single_resonance(profile, state, state.eps_ev, x, t_fs=tau * state.lifetime_fs)
        phi = stationary_wave(profile, state.eps_ev, x)
        ratio2 = sol.abs2 / abs(phi) ** 2
        assert np.max(np.abs(ratio2 - 1.0)) < 1e-3, label


def test_ratio_at_two_lifetimes(reference_configs):
    for label, profile, state, x in reference_configs:
        sol = evolve_single_resonance(profile, state, state.eps_ev, x, t_fs=np.array([2.0]) * state.lifetime_fs)
        phi = stationary_wave(profile, state.eps_ev, x)
        ratio = abs(sol.psi[0] / phi)
        assert ratio == pytest.approx(1.0 - np.exp(-1.0), abs=1e-2), label
        assert ratio**2 == pytest.approx(0.400, abs=1.5e-2), label


def test_truncation_self_convergence(symmetric_profile, symmetric_poles):
    """Adding poles 4..6 moves the on-resonance solution by < 1e-4 for tau >= 0.5.

    The far-pole tails decay algebraically: by tau >= 2 the difference is
    below 2e-5 and keeps falling.
    """
    poles = find_poles(symmetric_profile, 1.2)
    assert len(poles) >= 6
    st = symmetric_poles[0]
    tau = np.geomspace(0.5, 30.0, 800)
    s3 = evolve_all_poles(symmetric_profile, poles[:3], st, 80.0, tau)
    s6 = evolve_all_poles(symmetric_profile, poles[:6], st, 80.0, tau)
    rel = np.abs(s3.psi - s6.psi) / np.abs(s6.psi)
    assert np.max(rel) < 1e-4
    assert np.max(rel[tau >= 2.0]) < 2e-5


def test_single_resonance_validity_window(reference_configs, symmetric_profile, symmetric_poles):
    """The one-level form tracks the multi-pole solution from tau ~ 0.5 on.

    For the sharp ground resonance the agreement is at the 1e-4 level; the
    broader states agree at the curve-resolution level (~1.5e-2).
    """
    tau = np.geomspace(0.5, 20.0, 500)
    for label, profile, state, x in reference_configs:
        if profile is symmetric_profile:
            poles = symmetric_poles
        else:
            poles = find_poles(profile, 0.3)
        single = evolve_single_resonance(profile, state, state.eps_ev, x, t_fs=tau * state.lifetime_fs)
        full = evolve_all_poles(profile, poles, state, x, tau)
        rel = np.max(np.abs(single.psi - full.psi) / np.abs(full.psi))
        assert rel < 2e-2, label
        if label == "sym-n1":
            assert rel < 1e-4


def test_full_rejects_empty_pole_list(symmetric_profile, symmetric_poles):
    st = symmetric_poles[0]
    with pytest.raises(ValueError):
        evolve_full(symmetric_profile, [], st.eps_ev, 80.0, t_fs=np.array([1.0]) * st.lifetime_fs)


def test_asymmetric_buildup_level_differs(symmetric_profile, asymmetric_profile,
                                          symmetric_poles, asymmetric_poles):
    """Raw |Psi|^2 levels are structure-specific even though tau-curves collapse."""
    tau = np.geomspace(0.1, 20.0, 200)
    sym, asym = symmetric_poles[0], asymmetric_poles[0]
    sym_sol = evolve_single_resonance(symmetric_profile, sym, sym.eps_ev, 80.0, t_fs=tau * sym.lifetime_fs)
    asym_sol = evolve_single_resonance(asymmetric_profile, asym, asym.eps_ev, 55.0, t_fs=tau * asym.lifetime_fs)
    assert not np.allclose(sym_sol.abs2[-1], asym_sol.abs2[-1], rtol=0.2)
    assert np.all(np.diff(asym_sol.abs2[(tau >= 0.1) & (tau <= 10.0)]) > 0)


def test_decomposition_identity(reference_configs):
    tau = np.geomspace(0.05, 50.0, 600)
    for label, profile, state, x in reference_configs:
        sol = evolve_single_resonance(profile, state, state.eps_ev, x, t_fs=tau * state.lifetime_fs)
        dec = buildup_decomposition(sol, state)
        recomposed = dec.exponential_part + dec.remainder
        assert np.max(np.abs(recomposed - sol.abs2)) <= 1e-10 * np.max(sol.abs2), label


@pytest.mark.parametrize("config", ["symmetric", "asymmetric"])
def test_full_mode_decomposition(request, config):
    """The full pole sum on resonance 1 decomposes too, its tau derived as normalize_buildup derives it."""
    profile = request.getfixturevalue(f"{config}_profile")
    poles = request.getfixturevalue(f"{config}_poles")
    state, x = poles[0], {"symmetric": 80.0, "asymmetric": 55.0}[config]
    sol = evolve_all_poles(profile, poles, state, x, np.geomspace(0.05, 50.0, 600))
    dec = buildup_decomposition(sol, state)
    recomposed = dec.exponential_part + dec.remainder
    assert np.max(np.abs(recomposed - sol.abs2)) <= 1e-10 * np.max(sol.abs2)
    assert np.array_equal(dec.tau, normalize_buildup(sol, state).tau)


def test_decomposition_requires_on_resonance(symmetric_profile, symmetric_poles):
    st = symmetric_poles[0]
    sol = evolve_single_resonance(
        symmetric_profile, st, st.eps_ev * (1.0 + 1e-5), 80.0, t_fs=np.array([1.0, 2.0]) * st.lifetime_fs
    )
    with pytest.raises(ValueError):
        buildup_decomposition(sol, st)


def test_remainder_small_and_power_law_at_long_times(symmetric_profile, symmetric_poles):
    """Delta(tau)/|phi|^2 for the sharp ground state: ~1.6e-6 at tau = 30,
    decaying with an envelope exponent of -1/2."""
    st = symmetric_poles[0]
    tau = np.linspace(25.0, 60.0, 30000)
    sol = evolve_single_resonance(symmetric_profile, st, st.eps_ev, 80.0, t_fs=tau * st.lifetime_fs)
    dec = buildup_decomposition(sol, st)
    rel = np.abs(dec.remainder) / dec.phi_abs2
    assert np.max(rel[dec.tau >= 30.0]) < 5e-6
    exponent = fit_envelope_exponent(dec.tau, rel)
    assert exponent == pytest.approx(-0.5, abs=0.1)


def test_remainder_vanishes_at_late_times_broad_state(symmetric_profile, symmetric_poles):
    st = symmetric_poles[2]
    tau = np.linspace(25.0, 60.0, 30000)
    sol = evolve_single_resonance(symmetric_profile, st, st.eps_ev, 80.0, t_fs=tau * st.lifetime_fs)
    dec = buildup_decomposition(sol, st)
    rel = np.abs(dec.remainder) / dec.phi_abs2
    assert np.max(rel[dec.tau >= 30.0]) < 5e-4
    assert fit_envelope_exponent(dec.tau, rel) == pytest.approx(-0.5, abs=0.1)


def test_universality_of_normalized_curves(reference_configs):
    """All four normalized density curves coincide within 1e-2 on [0, 10]."""
    tau = np.linspace(0.01, 10.0, 2500)
    curves = []
    for label, profile, state, x in reference_configs:
        sol = evolve_single_resonance(profile, state, state.eps_ev, x, t_fs=tau * state.lifetime_fs)
        phi = stationary_wave(profile, state.eps_ev, x)
        curves.append(sol.abs2 / abs(phi) ** 2)
    for i in range(len(curves)):
        for j in range(i + 1, len(curves)):
            assert np.max(np.abs(curves[i] - curves[j])) < 1e-2



# ------------------------------------------------- reflected-branch bound
#
# M(y) = exp(y^2) - M(-y) on Re(y) < 0, and the kernel carries exp(y^2) as
# mantissa * exp(s) with s = max(Re y^2, 0).  For a fourth-quadrant pole
# k_n = a - ib, y_{k_n} is reflected only when a > b, and there
# Re(y^2) = -2ab hbar t / 2m < 0; y_k has Re(y^2) = 0 (|exp(y^2)| = 1), and
# y_{-k} and y_{-k_n*} are direct.  The kernel forms Re(y^2) as
# (Re y - Im y)(Re y + Im y), exactly 0 for y_k's equal parts, so s = 0 on
# every physical call and the plain kernel cannot overflow.

BOUND = 1e-12


def reflected_excess(y):
    """Re(y^2) / |y|^2 over the reflected arguments (0 when none is reflected)."""
    y = np.asarray(y)
    refl = y[y.real < 0.0]
    return float(np.max((refl * refl).real / np.abs(refl) ** 2, initial=0.0))


@settings(max_examples=200, deadline=None)
@given(
    re_kn=st.floats(min_value=1e-4, max_value=2.0),
    im_kn=st.floats(min_value=1e-6, max_value=2.0),
    k=st.floats(min_value=1e-4, max_value=2.0),
    t_fs=st.floats(min_value=1e-6, max_value=1e7),
)
def test_reflected_kernel_arguments_never_grow(re_kn, im_kn, k, t_fs):
    profile = build_profile([(1.0, 0.0)])
    k_n = complex(re_kn, -im_kn)
    # the four arguments exactly as _evolve builds them
    root_t = np.sqrt(profile.hbar2_over_2m * np.asarray([t_fs]) / HBAR_EV_FS)
    args = [
        -EXP_MINUS_IPI4 * k * root_t,
        EXP_MINUS_IPI4 * k * root_t,
        -EXP_MINUS_IPI4 * k_n * root_t,
        EXP_MINUS_IPI4 * np.conj(k_n) * root_t,
    ]
    for y in args:
        assert reflected_excess(y) <= BOUND
        _mantissa, log_scale = _moshinsky_m_grid(y, scaled=True)
        assert np.all(log_scale == 0.0)


def test_kernel_log_scale_stays_zero_on_symmetric_poles(
    monkeypatch, symmetric_profile, symmetric_poles_8ev
):
    """Every kernel call of evolve_full over 18 poles up to 8 eV, t in [1e-3, 1e5] fs.

    The kernel sees only node values, all on its direct branch; the free
    pair's reflected ray takes its exp(y^2) outside the kernel, and
    ``test_free_pair_keeps_its_exp_to_the_end_of_the_grid`` and
    ``test_late_time_ratio_matches_a_40_digit_sum_of_the_same_rays`` check it.
    """
    calls = []

    def recording_kernel(y):
        calls.append((np.array(y, dtype=complex), _moshinsky_m_grid(y, scaled=True)[1]))
        return _moshinsky_m_grid(y)

    monkeypatch.setattr(rtbuildup.dynamics, "_moshinsky_m_grid", recording_kernel)
    t_fs = np.geomspace(1e-3, 1e5, 2000)
    for energy_ev in (0.0378, 0.2, 1.0, 5.0):
        evolve_full(symmetric_profile, symmetric_poles_8ev, energy_ev, 80.0, t_fs=t_fs)
    assert len(calls) == 4  # one call per evolve: every node value at once
    for y, log_scale in calls:
        assert y.size > 0 and np.all(y.real >= 0.0)
        assert np.all(log_scale == 0.0)


# ------------------------------------------------ pole sum against kernels

def whole_grid_pole_sum(profile, poles, energy_ev, x, t_fs):
    """Psi with every kernel taken directly on the grid, its terms summed exactly per point.

    ``math.fsum`` adds the real and imaginary parts of the float terms with
    no rounding of its own, so the reference is off the exact sum of its
    terms by at most half an ulp, not by the rounding of 2P + 1 additions.
    """
    k = profile.wavevector(energy_ev)
    phi = stationary_state(profile, energy_ev).phi(x)
    root_t = np.sqrt(profile.hbar2_over_2m * np.asarray(t_fs) / HBAR_EV_FS)
    terms = [
        phi * _moshinsky_m_grid(-EXP_MINUS_IPI4 * k * root_t),
        -np.conj(phi) * _moshinsky_m_grid(EXP_MINUS_IPI4 * k * root_t),
    ]
    for state in poles:
        t_n = 2.0 * k * state.u0 * state.u(x) / (k * k - state.k * state.k)
        terms.append(-1j * t_n * _moshinsky_m_grid(-EXP_MINUS_IPI4 * state.k * root_t))
        terms.append(-1j * np.conj(t_n) * _moshinsky_m_grid(EXP_MINUS_IPI4 * np.conj(state.k) * root_t))
    return np.array([complex(math.fsum(point.real), math.fsum(point.imag)) for point in np.array(terms).T])


@pytest.mark.parametrize("points", [1, 4096, 4097, 12287])
def test_blocked_pole_sum_matches_whole_grid(symmetric_profile, symmetric_poles_8ev, points):
    t_fs = np.geomspace(1e-3, 1e5, points) if points > 1 else np.asarray([3.0])
    sol = evolve_full(symmetric_profile, symmetric_poles_8ev, 0.2, 80.0, t_fs=t_fs)
    psi = whole_grid_pole_sum(symmetric_profile, symmetric_poles_8ev, 0.2, 80.0, t_fs)
    assert np.max(np.abs(sol.psi - psi)) <= 1e-15 * np.max(np.abs(psi))


def test_full_sum_does_not_depend_on_pole_order(symmetric_profile, symmetric_poles_8ev):
    """The rays are summed in order of |c|, so reversing the poles leaves Psi bit for bit."""
    t_fs = np.geomspace(1e-3, 1e5, 4097)
    ahead = evolve_full(symmetric_profile, symmetric_poles_8ev, 0.2, 80.0, t_fs=t_fs)
    reversed_ = evolve_full(symmetric_profile, symmetric_poles_8ev[::-1], 0.2, 80.0, t_fs=t_fs)
    assert np.array_equal(ahead.psi, reversed_.psi)


def test_evolve_starts_no_thread(symmetric_profile, symmetric_poles):
    before = set(threading.enumerate())
    evolve_full(symmetric_profile, symmetric_poles, 0.2, 80.0, t_fs=np.geomspace(1e-2, 1e4, 12287))
    state = symmetric_poles[0]
    evolve_single_resonance(
        symmetric_profile, state, state.eps_ev, 80.0, t_fs=np.geomspace(0.01, 20.0, 200) * state.lifetime_fs
    )
    after = set(threading.enumerate())
    assert after <= before, sorted(t.name for t in after - before)
    # a pool an earlier test started would already be in `before`
    assert not [t.name for t in after if t.name.startswith("rtbuildup")]


def test_kernel_sees_only_points_below_y_far(monkeypatch, symmetric_profile, symmetric_poles_8ev):
    """And none below Y_NEAR: every ray of the pole sum is one-branch."""
    largest, smallest = [], []

    def recording_kernel(y, scaled=False):
        largest.append(np.max(np.abs(y)))
        smallest.append(np.min(np.abs(y)))
        return _moshinsky_m_grid(y, scaled)

    monkeypatch.setattr(rtbuildup.dynamics, "_moshinsky_m_grid", recording_kernel)
    t_fs = np.geomspace(1e-3, 1e5, 12287)
    sol = evolve_full(symmetric_profile, symmetric_poles_8ev, 0.2, 80.0, t_fs=t_fs)
    assert largest and max(largest) < Y_FAR
    # r >= Y_NEAR / |c| puts |c r| at Y_NEAR to within rounding
    assert min(smallest) >= (1.0 - 1e-15) * Y_NEAR
    psi = whole_grid_pole_sum(symmetric_profile, symmetric_poles_8ev, 0.2, 80.0, t_fs)
    assert np.max(np.abs(sol.psi - psi)) <= 1e-15 * np.max(np.abs(psi))


def test_grid_beyond_y_far_never_calls_the_kernel(monkeypatch, asymmetric_profile, asymmetric_poles):
    def no_kernel(y, scaled=False):
        raise AssertionError("kernel called beyond Y_FAR")

    profile = asymmetric_profile
    energy_ev = 0.15
    slowest = min([profile.wavevector(energy_ev)] + [abs(s.k) for s in asymmetric_poles])
    # |y| = |k| sqrt(hbar t / 2m) reaches Y_FAR on the slowest ray at t_min
    t_min = (Y_FAR / slowest) ** 2 * HBAR_EV_FS / profile.hbar2_over_2m
    t_fs = np.geomspace(1.001 * t_min, 1e3 * t_min, 4097)
    psi = whole_grid_pole_sum(asymmetric_profile, asymmetric_poles, energy_ev, 55.0, t_fs)
    monkeypatch.setattr(rtbuildup.dynamics, "_moshinsky_m_grid", no_kernel)
    sol = evolve_full(asymmetric_profile, asymmetric_poles, energy_ev, 55.0, t_fs=t_fs)
    assert np.max(np.abs(sol.psi - psi)) <= 1e-14 * np.max(np.abs(psi))


# ------------------------------------------------------- interpolated band

def band_ray(c, r):
    """M(c r) for one ray of unit weight through ``_Rays``."""
    out = np.zeros(r.size, dtype=complex)
    _Rays(np.asarray([c]), np.asarray([1.0 + 0.0j]), r).add_to(out)
    return out


@pytest.mark.parametrize("arg_kn", np.linspace(0.0, -0.6, 7))
@pytest.mark.parametrize("branch", ["direct", "reflected"])
def test_band_matches_mpmath(arg_kn, branch):
    """Y_NEAR <= |y| < Y_FAR on the two rays of a sharp (arg k_n = 0) to broad (-0.6) pole.

    The points include every piece edge and every node.  Both the band and
    ``wofz`` itself reach 1.1e-14 of the oracle at these points.
    """
    k_n = cmath.exp(1j * arg_kn)
    c = EXP_MINUS_IPI4 * k_n.conjugate() if branch == "direct" else -EXP_MINUS_IPI4 * k_n
    assert (c.real < 0.0) == (branch == "reflected")
    pieces = _Rays(np.asarray([c]), np.asarray([1.0 + 0.0j]), np.geomspace(Y_NEAR, Y_FAR, 50))
    nodes = (pieces.mid[:, None] + pieces.half[:, None] * _NODES).ravel()
    edges = pieces.bounds[pieces.bounds < Y_FAR]
    assert edges.size >= 6 and nodes.size == edges.size * _NODES.size
    r = np.unique(np.concatenate([np.geomspace(Y_NEAR, (1.0 - 1e-15) * Y_FAR, 25), edges, nodes]))
    value = band_ray(c, r)
    with mp.workdps(30):
        for ri, v in zip(r, value):
            y = mp.mpc(c) * mp.mpf(ri)
            expected = complex(mp.exp(y * y) * mp.erfc(y) / 2)
            assert abs(v - expected) <= 5e-14 * abs(expected), (ri, abs(v / expected - 1.0))


def barycentric(values, x):
    """The interpolant through ``values`` at 17 first-kind Chebyshev nodes, at each x in [-1, 1].

    The barycentric formula with the nodes' own weights (-1)^j sin(theta_j)
    (Berrut & Trefethen, SIAM Rev. 46, 501 (2004), sec. 5); a point on a
    node takes that node's value.
    """
    theta = (2 * np.arange(17) + 1) * np.pi / 34
    nodes, weights = np.cos(theta), (-1.0) ** np.arange(17) * np.sin(theta)
    out = np.empty(x.size, dtype=complex)
    for i, xi in enumerate(x):
        on = np.flatnonzero(xi == nodes)
        if on.size:
            out[i] = values[on[0]]
        else:
            q = weights / (xi - nodes)
            out[i] = np.sum(q * values) / np.sum(q)
    return out


@pytest.mark.parametrize("arg_kn", [0.0, -0.6])
@pytest.mark.parametrize("branch", ["direct", "reflected"])
def test_band_matches_barycentric_oracle(arg_kn, branch):
    """The band of one ray against the barycentric interpolant of the same node values.

    The points are every piece edge in the band, every node and 200 seeded
    interior points.  The reflected ray's explicit exp(y^2) is left out, so
    that only the interpolated direct-branch term -M(-y) is compared.
    """
    k_n = cmath.exp(1j * arg_kn)
    c = EXP_MINUS_IPI4 * k_n.conjugate() if branch == "direct" else -EXP_MINUS_IPI4 * k_n
    sign = -1.0 if branch == "reflected" else 1.0
    pieces = _Rays(np.asarray([c]), np.asarray([1.0 + 0.0j]), np.geomspace(Y_NEAR, Y_FAR, 50))
    nodes = pieces.mid[:, None] + pieces.half[:, None] * _NODES
    edges = pieces.bounds[pieces.bounds < pieces.far_edge[0]]
    interior = np.random.default_rng(17).uniform(edges[0], pieces.far_edge[0], 200)
    r = np.unique(np.concatenate([edges, nodes.ravel(), interior]))
    rays = _Rays(np.asarray([c]), np.asarray([1.0 + 0.0j]), r)
    assert np.array_equal(rays.mid, pieces.mid) and np.array_equal(rays.half, pieces.half)
    rays.exp_c, rays.exp_w = [], []
    band = np.zeros(r.size, dtype=complex)
    rays.add_to(band)
    values = sign * _moshinsky_m_grid(sign * c * nodes)
    p = np.searchsorted(rays.bounds, r, "right") - 1
    x = (r - rays.mid[p]) / rays.half[p]
    expected = np.concatenate([barycentric(values[q], x[p == q]) for q in range(values.shape[0])])
    scale = np.max(np.abs(values), axis=1)[p]
    assert np.max(np.abs(band - expected) / scale) <= 1e-15
    # a point exactly on a node returns that node's value
    on_node = x[:, None] == _NODES
    assert on_node.any(axis=1).sum() >= values.shape[0]
    at, j = np.nonzero(on_node)
    assert np.max(np.abs(band[at] - values[p[at], j]) / scale[at]) <= 1e-15


def forget_exp_tables():
    """Make the next evolve a cold one: no grid and no exp(y^2) table of an earlier evolve is kept."""
    rtbuildup.dynamics._kept_exp = (np.empty(0), {})


def test_pole_sum_memory_stays_within_twelve_grid_arrays(symmetric_profile, asymmetric_profile):
    """tracemalloc's peak over evolves on 20,000 points with 8 or 9 pole pairs, in complex grid arrays.

    The second evolve on a grid builds the exp(y^2) tables it keeps (about
    5.4 arrays) and peaks at about 9.5; the third reuses them and peaks
    about 4 above them, 9.5 in all: the band's Chebyshev basis (17 reals a
    point) is held for at most 2,048 points at a time.  The fourth, on
    another structure, drops those tables before it builds its own and
    peaks at 9.7, where keeping them to the end of the call read 12.5.  A
    prototype that summed the near and far series as power-basis products
    over the whole grid read about 16 without any kept table, and broke the
    benchmark's peak-RSS bound on the pole-sum workload.
    """
    poles = find_poles(symmetric_profile, 1.8)
    assert len(poles) == 8
    other = find_poles(asymmetric_profile, 1.8)
    assert len(other) == 9
    t_fs = np.geomspace(0.1, 1e4, 20000)
    grid_array = 16 * t_fs.size
    forget_exp_tables()
    evolve_full(symmetric_profile, poles, 0.2, 80.0, t_fs=t_fs)  # the first call's one-time allocations and caches
    calls = {
        "build": (symmetric_profile, poles, 0.2, 80.0),
        "reuse": (symmetric_profile, poles, 0.3, 50.0),
        "switch": (asymmetric_profile, other, 0.2, 80.0),
    }
    tracemalloc.start()
    try:
        for name, (profile, pole_list, energy, x) in calls.items():
            tracemalloc.reset_peak()
            evolve_full(profile, pole_list, energy, x, t_fs=t_fs)
            retained, peak = tracemalloc.get_traced_memory()
            assert rtbuildup.dynamics._kept_exp[1], name
            assert peak <= 12 * grid_array, (name, peak / grid_array)
            assert retained <= 7.5 * grid_array, (name, retained / grid_array)
    finally:
        tracemalloc.stop()


def evolve_case(profile, poles, case, t_fs):
    mode, energy, x = case
    if mode == "full":
        return evolve_full(profile, poles, energy, x, t_fs=t_fs).psi
    return evolve_single_resonance(profile, poles[0], energy, x, t_fs=t_fs).psi


def test_evolves_that_reuse_exp_tables_equal_cold_ones(symmetric_profile, asymmetric_profile):
    """Four (E, x) a structure on both configs, full and single-resonance, in shuffled order."""
    t_fs = np.geomspace(0.1, 1e4, 8192)
    cases = []
    for profile in (symmetric_profile, asymmetric_profile):
        poles = find_poles(profile, 1.2)
        state = poles[0]
        for i, (shift, where) in enumerate([(-3.0, 0.3), (-0.5, 0.45), (1.0, 0.6), (4.0, 0.8)]):
            energy = state.eps_ev + shift * state.gamma_ev
            x = where * profile.total_length
            cases.append((profile, poles, ("single", energy, x)))
            cases.append((profile, poles, ("full", [0.05, 0.15, 0.6, 1.0][i], x)))
    cold = []
    for profile, poles, case in cases:
        forget_exp_tables()
        cold.append(evolve_case(profile, poles, case, t_fs))
    order = np.random.default_rng(7).permutation(len(cases)).tolist()
    forget_exp_tables()
    reused = 0
    for i in order + order:
        before = rtbuildup.dynamics._kept_exp[1]
        psi = evolve_case(*cases[i], t_fs)
        after = rtbuildup.dynamics._kept_exp[1]
        reused += sum(after.get(key) is table for key, table in before.items())
        assert np.array_equal(psi, cold[i]), cases[i][2]
    assert reused >= 8


def test_a_grid_one_ulp_or_one_point_apart_reuses_nothing(symmetric_profile, symmetric_poles):
    profile = symmetric_profile
    t_fs = np.geomspace(0.1, 1e4, 4096)
    r = np.sqrt(profile.hbar2_over_2m * t_fs / HBAR_EV_FS)
    j = 3000  # |y| ~ 5 on the lowest pole's reflected ray, inside its exp(y^2) table
    nudged = t_fs.copy()
    nudged[j] = t_at(profile, np.nextafter(r[j], np.inf))
    r_nudged = np.sqrt(profile.hbar2_over_2m * nudged / HBAR_EV_FS)
    assert np.count_nonzero(r_nudged != r) == 1 and r_nudged[j] == np.nextafter(r[j], np.inf)
    for other in (nudged, t_fs[:-1]):
        forget_exp_tables()
        cold = evolve_full(symmetric_profile, symmetric_poles, 0.2, 80.0, t_fs=other).psi
        for _ in range(2):
            evolve_full(symmetric_profile, symmetric_poles, 0.2, 80.0, t_fs=t_fs)
        assert rtbuildup.dynamics._kept_exp[1]
        warm = evolve_full(symmetric_profile, symmetric_poles, 0.2, 80.0, t_fs=other).psi
        assert np.array_equal(warm, cold)
        grid, tables = rtbuildup.dynamics._kept_exp
        assert not tables and grid.size == other.size and not np.array_equal(grid, r)


def test_alternating_grids_give_cold_values(symmetric_profile, symmetric_poles):
    grids = {"A": np.geomspace(0.1, 1e4, 4096), "B": np.geomspace(0.2, 2e4, 4096)}
    cold = {}
    for name, t_fs in grids.items():
        forget_exp_tables()
        cold[name] = evolve_full(symmetric_profile, symmetric_poles, 0.2, 80.0, t_fs=t_fs).psi
    forget_exp_tables()
    for name in "AABAABBA":
        psi = evolve_full(symmetric_profile, symmetric_poles, 0.2, 80.0, t_fs=grids[name]).psi
        assert np.array_equal(psi, cold[name]), name


def test_concurrent_evolves_never_pair_a_grid_with_another_grids_tables(symmetric_profile, symmetric_poles):
    """Four threads on two grids 1e-9 apart, switching every few microseconds: each Psi equals its cold value."""
    grids = [np.geomspace(0.1, 1e4, 2048), np.geomspace(0.1, 1e4, 2048) * (1.0 + 1e-9)]
    cold = []
    for t_fs in grids:
        forget_exp_tables()
        cold.append(evolve_full(symmetric_profile, symmetric_poles, 0.2, 80.0, t_fs=t_fs).psi)
    wrong, done = [], []

    def sweep(first):
        for n in range(60):
            g = (first + n // 2) % 2
            psi = evolve_full(symmetric_profile, symmetric_poles, 0.2, 80.0, t_fs=grids[g]).psi
            if not np.array_equal(psi, cold[g]):
                wrong.append((first, n))
            done.append(n)

    threads = [threading.Thread(target=sweep, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(done) == 4 * 60 and not wrong


@pytest.mark.parametrize("ceiling, kept", [(1.8, True), (8.0, False)])
def test_exp_tables_are_kept_read_only_and_within_the_cap(symmetric_profile, ceiling, kept):
    """8 pole pairs keep 5.4 grid arrays of tables; 18 would need more than 7 and keep none."""
    poles = find_poles(symmetric_profile, ceiling)
    t_fs = np.geomspace(0.1, 1e4, 8192)
    evolve_full(symmetric_profile, poles, 0.3, 50.0, t_fs=np.geomspace(0.5, 5e3, 100))  # lazy imports
    forget_exp_tables()
    tracemalloc.start()
    try:
        for _ in range(2):
            evolve_full(symmetric_profile, poles, 0.3, 50.0, t_fs=t_fs)
        retained, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    grid, tables = rtbuildup.dynamics._kept_exp
    assert bool(tables) == kept
    held = sum(table.nbytes for table in tables.values())
    assert held <= 7 * 16 * t_fs.size
    assert grid.nbytes + held <= retained <= grid.nbytes + held + 0.1 * 16 * t_fs.size
    for table in tables.values():
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 0.0


def test_rays_a_rounding_apart_share_their_band_edges(monkeypatch):
    """|c| that differ in the last bits, as a pair's two rays may, leave no node outside the band."""
    seen = []

    def recording_kernel(y):
        seen.append(np.abs(y))
        return _moshinsky_m_grid(y)

    monkeypatch.setattr(rtbuildup.dynamics, "_moshinsky_m_grid", recording_kernel)
    for phase in np.linspace(-1.2, 0.7, 5):
        for bits in (1, 2, 3, 4):
            c = EXP_MINUS_IPI4 * cmath.exp(1j * phase) * np.asarray([1.0, 1.0 + bits * 2.2e-16])
            edges = np.concatenate([Y_NEAR / np.abs(c), Y_FAR / np.abs(c)])
            r = np.unique(np.concatenate([np.geomspace(0.5, 10.0, 50) / np.abs(c[0]), edges]))
            out = np.zeros(r.size, dtype=complex)
            _Rays(c, np.ones(2, dtype=complex), r).add_to(out)
            expected = _moshinsky_m_grid(c[0] * r) + _moshinsky_m_grid(c[1] * r)
            assert np.max(np.abs(out - expected) / np.abs(expected)) <= 5e-14
    seen = np.concatenate(seen)
    assert seen.max() < Y_FAR and seen.min() >= (1.0 - 1e-15) * Y_NEAR


def t_at(profile, r):
    """The time whose r = sqrt(hbar t / 2m), as ``_evolve`` forms it, is r exactly (or nearest)."""
    t = r * r * HBAR_EV_FS / profile.hbar2_over_2m
    for _ in range(8):
        root = np.sqrt(profile.hbar2_over_2m * np.asarray([t]) / HBAR_EV_FS)[0]
        if root == r:
            break
        t = np.nextafter(t, np.inf if root < r else 0.0)
    return t


def test_short_grids_in_the_band_match_whole_grid(symmetric_profile, symmetric_poles_8ev):
    """One and two points inside one piece, and a grid that starts on a band edge."""
    profile = symmetric_profile
    k = profile.wavevector(0.2)
    c = [EXP_MINUS_IPI4 * k]
    for s in symmetric_poles_8ev:
        c += [-EXP_MINUS_IPI4 * s.k, EXP_MINUS_IPI4 * s.k.conjugate()]
    rays = _Rays(np.asarray(c), np.ones(len(c), dtype=complex), np.zeros(0))
    r_mid = np.sqrt(profile.hbar2_over_2m * 10.0 / HBAR_EV_FS)  # t = 10 fs, where |Psi| ~ |phi|
    assert np.sum((rays.near_edge <= r_mid) & (r_mid < rays.far_edge)) >= 3
    p = np.searchsorted(rays.bounds, r_mid, "right") - 1
    lo, hi = rays.bounds[p], rays.bounds[p + 1]
    edge = rays.near_edge[np.argmin(np.abs(np.log(rays.near_edge / r_mid)))]
    t_edge = t_at(profile, edge)
    grids = [
        [t_at(profile, np.sqrt(lo * hi))],
        [t_at(profile, lo * (hi / lo) ** f) for f in (0.25, 0.75)],
        t_edge * np.asarray([1.0, 1.2, 1.5, 3.0]),
    ]
    assert np.sqrt(profile.hbar2_over_2m * t_edge / HBAR_EV_FS) == edge
    for t_fs in grids:
        t_fs = np.asarray(t_fs)
        sol = evolve_full(symmetric_profile, symmetric_poles_8ev, 0.2, 80.0, t_fs=t_fs)
        psi = whole_grid_pole_sum(symmetric_profile, symmetric_poles_8ev, 0.2, 80.0, t_fs)
        assert np.max(np.abs(sol.psi - psi)) <= 1e-15 * np.max(np.abs(psi)), t_fs


def mpmath_pole_sum(k, phi, poles, r, dps=25):
    """Psi at each r = sqrt(hbar t / 2m) from the unreflected pole sum in mpmath.

    ``poles`` holds (k_n, u_n(0), u_n(x)); every kernel is
    M(y) = exp(y^2) erfc(y) / 2 at y_q = -exp(-i pi/4) q r, each pole with
    its partner -k_n*, and the free term as phi M(y_k) - phi* M(y_{-k}).
    """
    with mp.workdps(dps):
        rot = mp.exp(-0.25j * mp.pi)
        k, phi = mp.mpf(k), mp.mpc(phi)

        def m(q, root_t):
            y = -rot * q * root_t
            return mp.exp(y * y) * mp.erfc(y) / 2

        terms = [(mp.mpc(k_n), 2 * k * mp.mpc(u0) * mp.mpc(ux) / (k * k - mp.mpc(k_n) ** 2))
                 for k_n, u0, ux in poles]
        out = []
        for root_t in r:
            root_t = mp.mpf(root_t)
            psi = phi * m(k, root_t) - mp.conj(phi) * m(-k, root_t)
            for k_n, t_n in terms:
                psi -= 1j * (t_n * m(k_n, root_t) + mp.conj(t_n) * m(-mp.conj(k_n), root_t))
            out.append(complex(psi))
    return np.asarray(out)


@pytest.mark.parametrize("structure", ["symmetric", "asymmetric"])
def test_pole_sum_matches_mpmath_to_32_ev(request, structure):
    """Every band of the collapsed sum against an independent 25-digit sum.

    The grid runs from 1e-3 to 1e3 fs; beyond that the phase of
    exp(y^2) on the double-precision r, not the method, limits agreement.
    """
    profile = request.getfixturevalue(f"{structure}_profile")
    x = 80.0 if structure == "symmetric" else 55.0
    poles = find_poles(profile, 32.0)
    assert len(poles) >= 38
    t_fs = np.geomspace(1e-3, 1e3, 4096)
    sol = evolve_full(profile, poles, 0.2, x, t_fs=t_fs)
    k = profile.wavevector(0.2)
    r = np.sqrt(profile.hbar2_over_2m * t_fs / HBAR_EV_FS)
    samples = np.searchsorted(t_fs, [1e-3, 1e-2, 0.1, 1.0, 2.0, 5.0, 20.0, 200.0, 1e3])
    speeds = np.abs([k] + [s.k for s in poles])
    # at t = 2 fs one grid point has rays below Y_NEAR, between, and beyond Y_FAR
    y = speeds * r[samples[4]]
    assert y.min() < Y_NEAR and y.max() >= Y_FAR and np.any((y >= Y_NEAR) & (y < Y_FAR))
    phi = stationary_state(profile, 0.2).phi(x)
    reference = mpmath_pole_sum(k, phi, [(s.k, s.u0, s.u(x)) for s in poles], r[samples])
    error = np.abs(sol.psi[samples] - reference) / np.abs(reference)
    assert np.max(error) <= 1e-12, np.max(error)


def test_single_resonance_modulus_matches_mpmath_at_late_times(symmetric_profile, symmetric_poles):
    """|Psi| on resonance 1 at tau in [20, 60], where |exp(y_k^2)| = 1 must hold for |y_k|^2 ~ 1e3.

    An exp(-i pi/4) whose parts differ in the last bit biases Re(y_k^2) and
    puts |Psi| off by 6e-12 of |phi| at tau = 60.
    """
    state = symmetric_poles[0]
    tau = np.linspace(20.0, 60.0, 41)
    sol = evolve_single_resonance(symmetric_profile, state, state.eps_ev, 80.0, t_fs=tau * state.lifetime_fs)
    profile = symmetric_profile
    r = np.sqrt(profile.hbar2_over_2m * sol.t_fs / HBAR_EV_FS)
    k = profile.wavevector(state.eps_ev)
    reference = mpmath_pole_sum(k, sol.phi, [(state.k, state.u0, state.u(80.0))], r)
    error = np.abs(np.abs(sol.psi) - np.abs(reference)) / abs(sol.phi)
    assert np.max(error) <= 2e-12, np.max(error)


def mpmath_ray_sum(c, w, r, dps=40):
    """sum_i w_i M(c_i r) at each r in mpmath, M(y) = exp(y^2) erfc(y) / 2, from the double c, w and r."""
    with mp.workdps(dps):
        rays = [(mp.mpc(ci), mp.mpc(wi)) for ci, wi in zip(c.tolist(), w.tolist())]
        sums = []
        for root_t in r.tolist():
            ys = [(ci * mp.mpf(root_t), wi) for ci, wi in rays]
            sums.append(mp.fsum(wi * mp.exp(y * y) * mp.erfc(y) / 2 for y, wi in ys))
        return sums


@pytest.mark.parametrize("structure", ["symmetric", "asymmetric"])
def test_late_time_ratio_matches_a_40_digit_sum_of_the_same_rays(monkeypatch, request, structure):
    """|Psi/phi| on resonance 1, poles to 48 eV, tau = 1e3 to 1e12: within 1e-15 of the same rays in mpmath.

    Late, |Psi/phi| - 1 follows Re(y_k^2), which must be exactly 0; squared
    as y * y it was off by 1.4e-2 (symmetric) and 1.3e-3 (asymmetric) at
    tau = 1e12.
    """
    profile = request.getfixturevalue(f"{structure}_profile")
    x = 80.0 if structure == "symmetric" else 55.0
    poles = find_poles(profile, 48.0)
    rays = []

    class RecordedRays(_Rays):
        def __init__(self, c, w, r):
            rays.append((c, w, r))
            super().__init__(c, w, r)

    monkeypatch.setattr(rtbuildup.dynamics, "_Rays", RecordedRays)
    tau = np.asarray([1e3, 1e4, 1e6, 1e8, 1e10, 1e12])
    sol = evolve_full(profile, poles, poles[0].eps_ev, x, t_fs=tau * poles[0].lifetime_fs)
    (c, w, r), = rays
    reference = mpmath_ray_sum(c, w, r)
    error = [float(abs(abs(mp.mpc(v)) - abs(ref))) / abs(sol.phi) for v, ref in zip(sol.psi.tolist(), reference)]
    assert max(error) <= 1e-15, error


@pytest.mark.parametrize("structure", ["symmetric", "asymmetric"])
def test_free_pair_keeps_its_exp_to_the_end_of_the_grid(request, structure):
    """The free term's reflected ray has |exp(y^2)| = 1: its exp range never ends.

    The decay rate -Re(c^2) = (Im c - Re c)(Im c + Re c) is exactly 0 for
    c's equal parts, as Re(y^2) is in the exp itself; from (c c).real a
    rounding-level negative part would end the range at a finite r, beyond
    which Psi would lose phi exp(y_k^2).
    """
    profile = request.getfixturevalue(f"{structure}_profile")
    r = np.geomspace(1e-3, 1e9, 64)
    for energy_ev in np.linspace(0.01, 2.0, 500):
        c_free = EXP_MINUS_IPI4 * profile.wavevector(energy_ev)
        rays = _Rays(np.asarray([-c_free, c_free]), np.asarray([1.0, -1.0 + 0.0j]), r)
        assert rays.exp_to.tolist() == [math.inf], energy_ev
        start, stop = np.searchsorted(r, rays.exp_from), np.searchsorted(r, rays.exp_to)
        assert start[0] < stop[0] == r.size


def test_moments_of_66_pole_pairs_stay_in_range(symmetric_profile):
    """c^n to n = 37 and c^-(2j+1) to j = 16 over rays from 1e-3 eV to 96 eV.

    The pole sum runs in the calling thread, where the error state applies.
    """
    poles = find_poles(symmetric_profile, 96.0)
    assert len(poles) == 66
    t_fs = np.geomspace(1e-3, 1e5, 4096)
    with np.errstate(over="raise", under="raise", invalid="raise"):
        sol = evolve_full(symmetric_profile, poles, 1e-3, 80.0, t_fs=t_fs)
    psi = whole_grid_pole_sum(symmetric_profile, poles, 1e-3, 80.0, t_fs)
    assert np.max(np.abs(sol.psi - psi)) <= 1e-14 * np.max(np.abs(psi))


def _evolve_in_child(profile, poles, t_fs, expected):
    sol = evolve_full(profile, poles, 0.2, 80.0, t_fs=t_fs)
    if not np.array_equal(sol.psi, expected):
        raise SystemExit(3)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_forked_child_runs_a_multi_block_evolve(symmetric_profile, symmetric_poles):
    """A child forked after an evolve in the parent runs one of its own to the same values."""
    t_fs = np.geomspace(1e-2, 1e4, 8193)
    parent = evolve_full(symmetric_profile, symmetric_poles, 0.2, 80.0, t_fs=t_fs)
    child = multiprocessing.get_context("fork").Process(
        target=_evolve_in_child, args=(symmetric_profile, symmetric_poles, t_fs, parent.psi)
    )
    child.start()
    child.join(timeout=30.0)
    if child.is_alive():
        child.kill()
        child.join()
        pytest.fail("forked child did not finish an 8193-point evolve within 30 s")
    assert child.exitcode == 0
