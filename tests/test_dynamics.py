import cmath
import math
import multiprocessing
import os
import threading
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rtbuildup.dynamics
from rtbuildup import (
    ConvergenceWarning,
    PhysicalConstants,
    buildup_decomposition,
    evolve_full,
    evolve_single_resonance,
    exponential_law,
    fit_envelope_exponent,
    find_poles,
    stationary_wave,
)
from rtbuildup.dynamics import _NODES, _Rays
from rtbuildup.moshinsky import EXP_MINUS_IPI4, Y_FAR, Y_NEAR, _moshinsky_m_grid
from rtbuildup.scattering import stationary_state


def evolve_all_poles(profile, poles, state, x, tau):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        return evolve_full(profile, poles, state.eps_ev, x, tau=tau, reference=state)


def test_grid_validation(symmetric_profile, symmetric_poles):
    st = symmetric_poles[0]
    with pytest.raises(ValueError):
        evolve_single_resonance(symmetric_profile, st, st.eps_ev, 80.0, tau=[1.0], t_fs=[1.0])
    with pytest.raises(ValueError):
        evolve_single_resonance(symmetric_profile, st, st.eps_ev, 80.0, tau=[0.0, 1.0])
    with pytest.raises(ValueError):
        evolve_single_resonance(symmetric_profile, st, st.eps_ev, 80.0, tau=[2.0, 1.0])
    with pytest.raises(ValueError):
        evolve_single_resonance(symmetric_profile, st, st.eps_ev, 200.0, tau=[1.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("grid", ["t_fs", "tau"])
def test_grid_rejects_non_finite_times(symmetric_profile, symmetric_poles, grid, bad):
    st = symmetric_poles[0]
    with pytest.raises(ValueError):
        evolve_single_resonance(symmetric_profile, st, st.eps_ev, 80.0, **{grid: [1.0, bad]})
    with pytest.raises(ValueError):
        evolve_full(symmetric_profile, symmetric_poles, 0.2, 80.0, **{grid: [bad]}, reference=st)


@pytest.mark.parametrize("energy_ev", [np.nan, np.inf, 0.0, -0.1])
def test_evolve_rejects_energy_outside_zero_to_inf(symmetric_profile, symmetric_poles, energy_ev):
    st = symmetric_poles[0]
    with pytest.raises(ValueError):
        evolve_full(symmetric_profile, symmetric_poles, energy_ev, 80.0, t_fs=[1.0, 2.0])
    with pytest.raises(ValueError):
        evolve_single_resonance(symmetric_profile, st, energy_ev, 80.0, t_fs=[1.0, 2.0])


def test_rejects_far_off_resonance_energy(symmetric_profile, symmetric_poles):
    st = symmetric_poles[0]
    with pytest.raises(ValueError):
        evolve_single_resonance(symmetric_profile, st, 2.0 * st.eps_ev, 80.0, tau=[1.0])


def test_single_pole_full_equals_single_resonance(symmetric_profile, symmetric_poles):
    st = symmetric_poles[0]
    tau = np.geomspace(0.05, 30.0, 300)
    a = evolve_single_resonance(symmetric_profile, st, st.eps_ev, 80.0, tau=tau)
    b = evolve_all_poles(symmetric_profile, [st], st, 80.0, tau)
    assert np.max(np.abs(a.psi - b.psi)) <= 1e-14 * np.max(np.abs(a.psi))
    assert a.mode == "single_resonance" and b.mode == "full"


def test_monotone_buildup_all_configurations(reference_configs):
    """|Psi|^2 is grid-wise non-decreasing through the buildup window.

    Past the crossover the algebraic remainder superimposes an oscillation
    of ~1e-4 relative amplitude, so strict monotonicity extends to the
    onset (~12 lifetimes for the broadest states), not arbitrarily far.
    """
    tau = np.geomspace(0.01, 50.0, 400)
    for label, profile, state, x in reference_configs:
        sol = evolve_single_resonance(profile, state, state.eps_ev, x, tau=tau)
        window = (tau >= 0.1) & (tau <= 12.0)
        increments = np.diff(sol.abs2[window])
        assert np.min(increments) > -1e-9 * np.max(sol.abs2), label


def test_monotone_buildup_extends_for_sharp_states(reference_configs):
    tau = np.geomspace(0.01, 50.0, 400)
    for label, profile, state, x in reference_configs[:2]:  # R > 100
        sol = evolve_single_resonance(profile, state, state.eps_ev, x, tau=tau)
        window = (tau >= 0.1) & (tau <= 20.0)
        increments = np.diff(sol.abs2[window])
        assert np.min(increments) > -1e-9 * np.max(sol.abs2), label


def test_stationary_limit(reference_configs):
    # the broadest state still carries a ~2e-4 oscillatory remainder at tau = 40
    tau = np.linspace(40.0, 44.0, 50)
    for label, profile, state, x in reference_configs:
        sol = evolve_single_resonance(profile, state, state.eps_ev, x, tau=tau)
        phi = stationary_wave(profile, state.eps_ev, x)
        ratio2 = sol.abs2 / abs(phi) ** 2
        assert np.max(np.abs(ratio2 - 1.0)) < 1e-3, label


def test_ratio_at_two_lifetimes(reference_configs):
    for label, profile, state, x in reference_configs:
        sol = evolve_single_resonance(profile, state, state.eps_ev, x, tau=[2.0])
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
        single = evolve_single_resonance(profile, state, state.eps_ev, x, tau=tau)
        full = evolve_all_poles(profile, poles, state, x, tau)
        rel = np.max(np.abs(single.psi - full.psi) / np.abs(full.psi))
        assert rel < 2e-2, label
        if label == "sym-n1":
            assert rel < 1e-4


def test_full_rejects_empty_pole_list(symmetric_profile, symmetric_poles):
    with pytest.raises(ValueError):
        evolve_full(symmetric_profile, [], symmetric_poles[0].eps_ev, 80.0, tau=[1.0])


def test_asymmetric_buildup_level_differs(symmetric_profile, asymmetric_profile,
                                          symmetric_poles, asymmetric_poles):
    """Raw |Psi|^2 levels are structure-specific even though tau-curves collapse."""
    tau = np.geomspace(0.1, 20.0, 200)
    sym_sol = evolve_single_resonance(
        symmetric_profile, symmetric_poles[0], symmetric_poles[0].eps_ev, 80.0, tau=tau
    )
    asym_sol = evolve_single_resonance(
        asymmetric_profile, asymmetric_poles[0], asymmetric_poles[0].eps_ev, 55.0, tau=tau
    )
    assert not np.allclose(sym_sol.abs2[-1], asym_sol.abs2[-1], rtol=0.2)
    assert np.all(np.diff(asym_sol.abs2[(tau >= 0.1) & (tau <= 10.0)]) > 0)


def test_decomposition_identity(reference_configs):
    tau = np.geomspace(0.05, 50.0, 600)
    for label, profile, state, x in reference_configs:
        sol = evolve_single_resonance(profile, state, state.eps_ev, x, tau=tau)
        dec = buildup_decomposition(sol, state)
        recomposed = dec.exponential_part + dec.remainder
        assert np.max(np.abs(recomposed - sol.abs2)) <= 1e-10 * np.max(sol.abs2), label


def test_decomposition_requires_single_resonance_mode(symmetric_profile, symmetric_poles):
    st = symmetric_poles[0]
    tau = np.asarray([1.0, 2.0])
    full = evolve_all_poles(symmetric_profile, symmetric_poles, st, 80.0, tau)
    with pytest.raises(ValueError):
        buildup_decomposition(full, st)


def test_decomposition_requires_on_resonance(symmetric_profile, symmetric_poles):
    st = symmetric_poles[0]
    sol = evolve_single_resonance(
        symmetric_profile, st, st.eps_ev * (1.0 + 1e-5), 80.0, tau=[1.0, 2.0]
    )
    with pytest.raises(ValueError):
        buildup_decomposition(sol, st)


def test_remainder_small_and_power_law_at_long_times(symmetric_profile, symmetric_poles):
    """Delta(tau)/|phi|^2 for the sharp ground state: ~1.6e-6 at tau = 30,
    decaying with an envelope exponent of -1/2."""
    st = symmetric_poles[0]
    tau = np.linspace(25.0, 60.0, 30000)
    sol = evolve_single_resonance(symmetric_profile, st, st.eps_ev, 80.0, tau=tau)
    dec = buildup_decomposition(sol, st)
    rel = np.abs(dec.remainder) / dec.phi_abs2
    assert np.max(rel[dec.tau >= 30.0]) < 5e-6
    exponent = fit_envelope_exponent(dec.tau, rel)
    assert exponent == pytest.approx(-0.5, abs=0.1)


def test_remainder_vanishes_at_late_times_broad_state(symmetric_profile, symmetric_poles):
    st = symmetric_poles[2]
    tau = np.linspace(25.0, 60.0, 30000)
    sol = evolve_single_resonance(symmetric_profile, st, st.eps_ev, 80.0, tau=tau)
    dec = buildup_decomposition(sol, st)
    rel = np.abs(dec.remainder) / dec.phi_abs2
    assert np.max(rel[dec.tau >= 30.0]) < 5e-4
    assert fit_envelope_exponent(dec.tau, rel) == pytest.approx(-0.5, abs=0.1)


def test_universality_of_normalized_curves(reference_configs):
    """All four normalized density curves coincide within 1e-2 on [0, 10]."""
    tau = np.linspace(0.01, 10.0, 2500)
    curves = []
    for label, profile, state, x in reference_configs:
        sol = evolve_single_resonance(profile, state, state.eps_ev, x, tau=tau)
        phi = stationary_wave(profile, state.eps_ev, x)
        curves.append(sol.abs2 / abs(phi) ** 2)
    for i in range(len(curves)):
        for j in range(i + 1, len(curves)):
            assert np.max(np.abs(curves[i] - curves[j])) < 1e-2


def test_time_and_tau_grids_are_consistent(symmetric_profile, symmetric_poles):
    st = symmetric_poles[0]
    tau = np.asarray([0.5, 1.0, 2.0])
    by_tau = evolve_single_resonance(symmetric_profile, st, st.eps_ev, 80.0, tau=tau)
    by_t = evolve_single_resonance(
        symmetric_profile, st, st.eps_ev, 80.0, t_fs=tau * st.lifetime_fs
    )
    assert np.array_equal(by_tau.t_fs, by_t.t_fs)
    assert np.max(np.abs(by_tau.psi - by_t.psi)) == 0.0
    assert by_t.tau[1] == 1.0  # t = hbar/Gamma converts to tau = 1 exactly


# ------------------------------------------------- reflected-branch bound
#
# M(y) = exp(y^2) - M(-y) on Re(y) < 0, and the kernel carries exp(y^2) as
# mantissa * exp(s) with s = max(Re y^2, 0).  For a fourth-quadrant pole
# k_n = a - ib, y_{k_n} is reflected only when a > b, and there
# Re(y^2) = -2ab hbar t / 2m < 0; y_k has Re(y^2) = 0 (|exp(y^2)| = 1), and
# y_{-k} and y_{-k_n*} are direct.  So s stays at rounding level on every
# physical call and the plain kernel cannot overflow.

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
    constants = PhysicalConstants(electron_mass_factor=0.067)
    k_n = complex(re_kn, -im_kn)
    # the four arguments exactly as _evolve builds them
    root_t = np.sqrt(constants.hbar2_over_2m * np.asarray([t_fs]) / constants.hbar)
    args = [
        -EXP_MINUS_IPI4 * k * root_t,
        EXP_MINUS_IPI4 * k * root_t,
        -EXP_MINUS_IPI4 * k_n * root_t,
        EXP_MINUS_IPI4 * np.conj(k_n) * root_t,
    ]
    for y in args:
        assert reflected_excess(y) <= BOUND
        _mantissa, log_scale = _moshinsky_m_grid(y, scaled=True)
        assert np.all(log_scale <= BOUND * np.abs(y) ** 2)


def test_kernel_log_scale_stays_zero_on_symmetric_poles(
    monkeypatch, symmetric_profile, symmetric_poles_8ev
):
    """Every kernel call of evolve_full over 18 poles up to 8 eV, t in [1e-3, 1e5] fs."""
    worst = []

    def recording_kernel(y):
        mantissa, log_scale = _moshinsky_m_grid(y, scaled=True)
        worst.append(np.max(log_scale / np.abs(y) ** 2))
        return _moshinsky_m_grid(y)

    monkeypatch.setattr(rtbuildup.dynamics, "_moshinsky_m_grid", recording_kernel)
    t_fs = np.geomspace(1e-3, 1e5, 2000)
    for energy_ev in (0.0378, 0.2, 1.0, 5.0):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConvergenceWarning)
            evolve_full(symmetric_profile, symmetric_poles_8ev, energy_ev, 80.0, t_fs=t_fs)
    assert len(worst) == 4  # one call per evolve: every node value at once
    assert max(worst) <= BOUND
    # the free term's exp(y_{-k}^2) is taken outside the kernel
    constants = symmetric_profile.constants
    root_t = np.sqrt(constants.hbar2_over_2m * t_fs / constants.hbar)
    for energy_ev in (0.0378, 0.2, 1.0, 5.0):
        y_mk = EXP_MINUS_IPI4 * constants.wavevector(energy_ev) * root_t
        assert np.all(np.abs((y_mk * y_mk).real) <= BOUND * np.abs(y_mk) ** 2)


# ------------------------------------------------ pole sum against kernels

def whole_grid_pole_sum(profile, poles, energy_ev, x, t_fs):
    """Psi with every kernel taken directly on the grid, its terms summed exactly per point.

    ``math.fsum`` adds the real and imaginary parts of the float terms with
    no rounding of its own, so the reference is off the exact sum of its
    terms by at most half an ulp, not by the rounding of 2P + 1 additions.
    """
    constants = profile.constants
    k = constants.wavevector(energy_ev)
    phi = stationary_state(profile, energy_ev).phi(x)
    root_t = np.sqrt(constants.hbar2_over_2m * np.asarray(t_fs) / constants.hbar)
    terms = [
        phi * _moshinsky_m_grid(-EXP_MINUS_IPI4 * k * root_t),
        -np.conj(phi) * _moshinsky_m_grid(EXP_MINUS_IPI4 * k * root_t),
    ]
    for state in poles:
        t_n = 2.0 * k * state.u0 * state.u(x) / (k * k - state.k * state.k)
        terms.append(-1j * t_n * _moshinsky_m_grid(-EXP_MINUS_IPI4 * state.k * root_t))
        terms.append(-1j * np.conj(t_n) * _moshinsky_m_grid(EXP_MINUS_IPI4 * np.conj(state.k) * root_t))
    return np.array([complex(math.fsum(point.real), math.fsum(point.imag)) for point in np.array(terms).T])


def quiet_full(profile, poles, energy_ev, x, t_fs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        return evolve_full(profile, poles, energy_ev, x, t_fs=t_fs)


@pytest.mark.parametrize("points", [1, 4096, 4097, 12287])
def test_blocked_pole_sum_matches_whole_grid(symmetric_profile, symmetric_poles_8ev, points):
    t_fs = np.geomspace(1e-3, 1e5, points) if points > 1 else np.asarray([3.0])
    sol = quiet_full(symmetric_profile, symmetric_poles_8ev, 0.2, 80.0, t_fs)
    psi = whole_grid_pole_sum(symmetric_profile, symmetric_poles_8ev, 0.2, 80.0, t_fs)
    assert np.max(np.abs(sol.psi - psi)) <= 1e-15 * np.max(np.abs(psi))


def test_full_sum_does_not_depend_on_pole_order(symmetric_profile, symmetric_poles_8ev):
    """The rays are summed in order of |c|, so reversing the poles leaves Psi bit for bit."""
    t_fs = np.geomspace(1e-3, 1e5, 4097)
    ahead = quiet_full(symmetric_profile, symmetric_poles_8ev, 0.2, 80.0, t_fs)
    reversed_ = quiet_full(symmetric_profile, symmetric_poles_8ev[::-1], 0.2, 80.0, t_fs)
    assert np.array_equal(ahead.psi, reversed_.psi)


def test_evolve_starts_no_thread(symmetric_profile, symmetric_poles):
    before = set(threading.enumerate())
    quiet_full(symmetric_profile, symmetric_poles, 0.2, 80.0, np.geomspace(1e-2, 1e4, 12287))
    state = symmetric_poles[0]
    evolve_single_resonance(
        symmetric_profile, state, state.eps_ev, 80.0, tau=np.geomspace(0.01, 20.0, 200)
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
    sol = quiet_full(symmetric_profile, symmetric_poles_8ev, 0.2, 80.0, t_fs)
    assert largest and max(largest) < Y_FAR
    # r >= Y_NEAR / |c| puts |c r| at Y_NEAR to within rounding
    assert min(smallest) >= (1.0 - 1e-15) * Y_NEAR
    psi = whole_grid_pole_sum(symmetric_profile, symmetric_poles_8ev, 0.2, 80.0, t_fs)
    assert np.max(np.abs(sol.psi - psi)) <= 1e-15 * np.max(np.abs(psi))


def test_grid_beyond_y_far_never_calls_the_kernel(monkeypatch, asymmetric_profile, asymmetric_poles):
    def no_kernel(y, scaled=False):
        raise AssertionError("kernel called beyond Y_FAR")

    constants = asymmetric_profile.constants
    energy_ev = 0.15
    slowest = min([constants.wavevector(energy_ev)] + [abs(s.k) for s in asymmetric_poles])
    # |y| = |k| sqrt(hbar t / 2m) reaches Y_FAR on the slowest ray at t_min
    t_min = (Y_FAR / slowest) ** 2 * constants.hbar / constants.hbar2_over_2m
    t_fs = np.geomspace(1.001 * t_min, 1e3 * t_min, 4097)
    psi = whole_grid_pole_sum(asymmetric_profile, asymmetric_poles, energy_ev, 55.0, t_fs)
    monkeypatch.setattr(rtbuildup.dynamics, "_moshinsky_m_grid", no_kernel)
    sol = quiet_full(asymmetric_profile, asymmetric_poles, energy_ev, 55.0, t_fs)
    assert np.max(np.abs(sol.psi - psi)) <= 1e-14 * np.max(np.abs(psi))


# ------------------------------------------------------- interpolated band

def band_ray(c, r):
    """M(c r) for one ray of unit weight through ``_Rays``."""
    out = np.zeros(r.size, dtype=complex)
    _Rays(np.asarray([c]), np.asarray([1.0 + 0.0j]), r).add_to(out, r)
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
    rays.add_to(band, r)
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


def test_pole_sum_memory_stays_within_twelve_grid_arrays(symmetric_profile):
    """tracemalloc's peak over one evolve on 20,000 points with 8 pole pairs, in complex grid arrays.

    It reads 4.6: the band's Chebyshev basis (17 reals a point) is held for
    at most 2,048 points at a time.  A prototype that summed the near and
    far series as power-basis products over the whole grid read about 16,
    and broke the benchmark's peak-RSS bound on the pole-sum workload.
    """
    poles = find_poles(symmetric_profile, 1.8)
    assert len(poles) == 8
    t_fs = np.geomspace(0.1, 1e4, 20000)
    quiet_full(symmetric_profile, poles, 0.2, 80.0, t_fs)  # the lazy wofz import and its caches
    tracemalloc.start()
    try:
        quiet_full(symmetric_profile, poles, 0.2, 80.0, t_fs)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 16 * t_fs.size, peak / (16 * t_fs.size)


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
            _Rays(c, np.ones(2, dtype=complex), r).add_to(out, r)
            expected = _moshinsky_m_grid(c[0] * r) + _moshinsky_m_grid(c[1] * r)
            assert np.max(np.abs(out - expected) / np.abs(expected)) <= 5e-14
    seen = np.concatenate(seen)
    assert seen.max() < Y_FAR and seen.min() >= (1.0 - 1e-15) * Y_NEAR


def t_at(constants, r):
    """The time whose r = sqrt(hbar t / 2m), as ``_evolve`` forms it, is r exactly (or nearest)."""
    t = r * r * constants.hbar / constants.hbar2_over_2m
    for _ in range(8):
        root = np.sqrt(constants.hbar2_over_2m * np.asarray([t]) / constants.hbar)[0]
        if root == r:
            break
        t = np.nextafter(t, np.inf if root < r else 0.0)
    return t


def test_short_grids_in_the_band_match_whole_grid(symmetric_profile, symmetric_poles_8ev):
    """One and two points inside one piece, and a grid that starts on a band edge."""
    constants = symmetric_profile.constants
    k = constants.wavevector(0.2)
    c = [EXP_MINUS_IPI4 * k]
    for s in symmetric_poles_8ev:
        c += [-EXP_MINUS_IPI4 * s.k, EXP_MINUS_IPI4 * s.k.conjugate()]
    rays = _Rays(np.asarray(c), np.ones(len(c), dtype=complex), np.zeros(0))
    r_mid = np.sqrt(constants.hbar2_over_2m * 10.0 / constants.hbar)  # t = 10 fs, where |Psi| ~ |phi|
    assert np.sum((rays.near_edge <= r_mid) & (r_mid < rays.far_edge)) >= 3
    p = np.searchsorted(rays.bounds, r_mid, "right") - 1
    lo, hi = rays.bounds[p], rays.bounds[p + 1]
    edge = rays.near_edge[np.argmin(np.abs(np.log(rays.near_edge / r_mid)))]
    t_edge = t_at(constants, edge)
    grids = [
        [t_at(constants, np.sqrt(lo * hi))],
        [t_at(constants, lo * (hi / lo) ** f) for f in (0.25, 0.75)],
        t_edge * np.asarray([1.0, 1.2, 1.5, 3.0]),
    ]
    assert np.sqrt(constants.hbar2_over_2m * t_edge / constants.hbar) == edge
    for t_fs in grids:
        t_fs = np.asarray(t_fs)
        sol = quiet_full(symmetric_profile, symmetric_poles_8ev, 0.2, 80.0, t_fs)
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
    sol = quiet_full(profile, poles, 0.2, x, t_fs)
    constants = profile.constants
    k = constants.wavevector(0.2)
    r = np.sqrt(constants.hbar2_over_2m * t_fs / constants.hbar)
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
    sol = evolve_single_resonance(symmetric_profile, state, state.eps_ev, 80.0, tau=tau)
    constants = symmetric_profile.constants
    r = np.sqrt(constants.hbar2_over_2m * sol.t_fs / constants.hbar)
    k = constants.wavevector(state.eps_ev)
    reference = mpmath_pole_sum(k, sol.phi, [(state.k, state.u0, state.u(80.0))], r)
    error = np.abs(np.abs(sol.psi) - np.abs(reference)) / abs(sol.phi)
    assert np.max(error) <= 2e-12, np.max(error)


@pytest.mark.parametrize("structure", ["symmetric", "asymmetric"])
def test_free_pair_keeps_its_exp_to_the_end_of_the_grid(request, structure):
    """The free term's reflected ray has |exp(y^2)| = 1: its exp range never ends.

    Re(c^2) = 0 exactly only when taken as Im(c)^2 - Re(c)^2 of equal parts;
    from (c c).real a rounding-level negative part ends the range at a finite
    r, beyond which Psi loses phi exp(y_k^2).
    """
    constants = request.getfixturevalue(f"{structure}_profile").constants
    r = np.geomspace(1e-3, 1e9, 64)
    for energy_ev in np.linspace(0.01, 2.0, 500):
        c_free = EXP_MINUS_IPI4 * constants.wavevector(energy_ev)
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
        sol = quiet_full(symmetric_profile, poles, 1e-3, 80.0, t_fs)
    psi = whole_grid_pole_sum(symmetric_profile, poles, 1e-3, 80.0, t_fs)
    assert np.max(np.abs(sol.psi - psi)) <= 1e-14 * np.max(np.abs(psi))


def _evolve_in_child(profile, poles, t_fs, expected):
    sol = quiet_full(profile, poles, 0.2, 80.0, t_fs)
    if not np.array_equal(sol.psi, expected):
        raise SystemExit(3)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_forked_child_runs_a_multi_block_evolve(symmetric_profile, symmetric_poles):
    """A child forked after an evolve in the parent runs one of its own to the same values."""
    t_fs = np.geomspace(1e-2, 1e4, 8193)
    parent = quiet_full(symmetric_profile, symmetric_poles, 0.2, 80.0, t_fs)
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
