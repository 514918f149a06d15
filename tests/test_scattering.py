import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from rtbuildup import (
    bound_state_energies,
    build_profile,
    stationary_state,
    stationary_wave,
)
from rtbuildup import scattering
from rtbuildup.scattering import _m22


def single_barrier_transmission(energy, height, width, mass_factor=0.067):
    """Closed-form |t|^2 of one rectangular barrier (independent oracle)."""
    c2 = 3.80998 / mass_factor
    if energy < height:
        kappa = math.sqrt((height - energy) / c2)
        osc = math.sinh(kappa * width) ** 2
    else:
        kappa = math.sqrt((energy - height) / c2)
        osc = -math.sin(kappa * width) ** 2
    return 1.0 / (1.0 + height * height * osc / (4.0 * energy * (height - energy)))


def test_free_profile_is_transparent():
    free = build_profile([(160.0, 0.0)])
    for e in (0.01, 0.1, 0.37):
        s = stationary_state(free, e)
        assert abs(abs(s.transmission_amplitude) - 1.0) < 1e-12
        assert abs(s.reflection_amplitude) < 1e-12


def test_single_barrier_against_closed_form():
    barrier = build_profile([(30.0, 0.5)])
    # frozen from the closed form above at E = 0.1 eV
    assert single_barrier_transmission(0.1, 0.5, 30.0) == pytest.approx(0.01664117345654462)
    for e in (0.05, 0.1, 0.3, 0.45):
        st_ = stationary_state(barrier, e)
        assert abs(st_.transmission_amplitude) ** 2 == pytest.approx(
            single_barrier_transmission(e, 0.5, 30.0), rel=1e-10
        )


def test_zero_local_wavevector_signalled():
    """At kappa exactly 0 m22 is finite and within 1e-10 of a 50-digit march next to it."""
    # binary-exact choice: hbar^2/2m = 2.0, height 0.125 eV, k = 0.25 1/A
    # make kappa^2 = k^2 - V/(hbar^2/2m) = 0.0625 - 0.0625 vanish exactly
    p = build_profile([(30.0, 0.125)], mass_factor=3.80998 / 2.0)
    assert p.hbar2_over_2m == 2.0
    got = complex(_m22(p, 0.25 + 0j))
    with mpmath.workdps(50):  # the oracle's sin(kappa s) / kappa needs kappa != 0
        want = complex(oracles.m22(p, 0.25 * (1.0 + 1e-12), mpmath))
    assert np.isfinite(got) and abs(got - want) <= 1e-10 * abs(want)


def test_unitarity_on_energy_grid(symmetric_profile):
    energies = np.linspace(0.001, 0.45, 1000)
    worst = 0.0
    for e in energies:
        s = stationary_state(symmetric_profile, e)
        worst = max(
            worst,
            abs(abs(s.transmission_amplitude) ** 2 + abs(s.reflection_amplitude) ** 2 - 1.0),
        )
    assert worst < 1e-10


def matrix_entries(profile, k):
    """(m11, m12, m21, m22) of the amplitude transfer matrix at k, from one ``_march`` at k and k*.

    The march at k gives the second column (m12, m22); for a real potential
    the conjugate of the e^{+ikx} wave is the e^{-ik*x} wave, so
    m11(k) = conj m22(k*) and m21(k) = conj m12(k*).
    """
    _, a, b = scattering._march(profile, np.array([k, k.conjugate()]))
    (m12, m21_conj), (m22, m11_conj) = a[-1], b[-1]
    return m11_conj.conjugate(), m12, m21_conj.conjugate(), m22


def test_determinant_unity_real_and_complex(symmetric_profile):
    for k in (0.02, 0.051, 0.02 - 0.001j, 0.08 - 0.01j, 0.12 + 0.005j):
        m11, m12, m21, m22 = matrix_entries(symmetric_profile, complex(k))
        assert abs(m11 * m22 - m12 * m21 - 1.0) < 1e-10


@settings(max_examples=40, deadline=None)
@given(
    re=st.floats(min_value=5e-3, max_value=0.15),
    im=st.floats(min_value=-0.05, max_value=0.05),
)
def test_determinant_unity_property(re, im):
    p = build_profile([(25.0, 0.4), (60.0, -0.05), (25.0, 0.4)])
    m11, m12, m21, m22 = matrix_entries(p, complex(re, im))
    assert abs(m11 * m22 - m12 * m21 - 1.0) < 1e-9 * max(1.0, abs(m22))


DEEP_EDGE_PROFILES = {
    "long_zero_segment": [(94.33, 0.0), (65.09, 0.3), (94.33, 0.3), (81.60, 0.0177)],
    "zero_well_zero_tail": [(49.10, 0.585), (8.0, 0.0), (49.10, 0.585), (92.92, 0.0)],
    "free": [(73.2, 0.0), (98.8, 0.0)],
}


def marched_m22_points(name, request):
    """(profile, digits of its reference march, momenta) of ``test_marched_m22_matches_mpmath``."""
    if name in DEEP_EDGE_PROFILES:
        profile, dps = build_profile(DEEP_EDGE_PROFILES[name]), 100
        k_hi = profile.wavevector(2.4)
        k = np.linspace(0.5 * profile.wavevector(1e-3), k_hi, 64) - 1j * k_hi
    else:
        profile, dps = request.getfixturevalue(f"{name}_profile"), 40
        k = (np.linspace(0.02, 3.0, 100)[:, np.newaxis] + 1j * np.linspace(-0.1, 0.0, 11)).ravel()
    heights = np.unique(profile.heights[profile.heights > 0.0])
    k_heights = np.sqrt(heights / profile.hbar2_over_2m)
    return profile, dps, np.concatenate([k, (1.0 - 1e-9) * k_heights, (1.0 + 1e-9) * k_heights])


@pytest.mark.parametrize("name", ["symmetric", "asymmetric", *DEEP_EDGE_PROFILES])
def test_marched_m22_matches_mpmath(name, request):
    """The search's m22 is within 1e-11 of a march in mpmath.

    On the benchmark structures the grid is Re k in [0.02, 3], Im k in
    [-0.1, 0] (1/A), against 40 digits; the largest errors lie next to
    zeros of m22, where |m22| ~ 1e-4.  On profiles with wide zero-height
    segments it is the deep edge of the search to 2.4 eV, Im k = -k(2.4 eV),
    against 100 digits: a (psi, psi') march in float64 lost every digit
    there.  Every profile adds k = (1 +- 1e-9) k(V_j) for each height
    V_j > 0, where kappa_j w_j ~ 1e-4 and the amplitude form loses the most.
    """
    profile, dps, k = marched_m22_points(name, request)
    with mpmath.workdps(dps):
        want = np.array([oracles.m22(profile, kk, mpmath) for kk in k.tolist()], dtype=complex)
    got = _m22(profile, k)
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-11


def march_segment_by_segment(profile, k):
    """Reference ``_march`` for an array of k: every kappa, coefficient and phase taken one segment at a time."""
    c2 = profile.hbar2_over_2m
    k = np.asarray(k, dtype=complex)
    regions = [k]
    for width, height in profile.segments:
        kappa = k
        if height != 0.0:
            kappa = np.sqrt(k**2 - height / c2)
            floor = scattering._KAPPA_W_FLOOR / width
            kappa = np.where(abs(kappa) < floor, floor, kappa)
        regions.append(kappa)
    regions.append(k)
    rows_a, rows_b = [], []
    for j, (p, q) in enumerate(zip(regions[:-1], regions[1:])):
        c11, c12 = (q + p) * (0.5 / q), (q - p) * (0.5 / q)
        if j == 0:
            a, b = c12, c11
        else:
            grow = np.exp(1j * profile.segments[j - 1][0] * p)
            a, b = a * grow, b / grow
            a, b = c11 * a + c12 * b, c12 * a + c11 * b
        rows_a.append(a)
        rows_b.append(b)
    return np.array(regions[1:]), np.array(rows_a), np.array(rows_b)


@pytest.mark.parametrize(
    "segments",
    [
        [(30.0, 0.5), (100.0, 0.0), (30.0, 0.5)],
        [(30.0, 0.3), (50.0, 0.0), (100.0, 0.3)],
        [(0.5, 0.2), (20.0, 0.0), (15.0, 0.45), (25.0, -0.1), (94.33, 0.0)],
    ],
)
def test_march_is_bit_identical_to_the_segment_by_segment_loop(segments):
    """``_march`` takes every segment's kappa and phase in one batch; each number equals the loop's.

    The momenta are arrays, as in the pole search: a grid deep in the fourth
    quadrant, and k on every height and one part in 1e-9 either side, where
    the floor on |kappa_j| w_j applies.
    """
    profile = build_profile(segments)
    heights = profile.heights[profile.heights > 0.0]
    on_height = np.sqrt(heights / profile.hbar2_over_2m) * np.array([[1.0], [1.0 - 1e-9], [1.0 + 1e-9]])
    grid = np.linspace(0.01, 0.4, 40)[:, np.newaxis] - 1j * np.linspace(0.0, 0.3, 7)
    for k in (on_height, grid):
        for got, want in zip(scattering._march(profile, k), march_segment_by_segment(profile, k)):
            assert np.array_equal(got, want)


def test_composition_of_concatenated_profiles():
    left = [(20.0, 0.3), (40.0, 0.0)]
    right = [(15.0, 0.45), (25.0, -0.1)]
    pa = build_profile(left)
    pb = build_profile(right)
    pab = build_profile(left + right)
    for k in (0.03, 0.07, 0.05 - 0.002j):
        a, b, ab = (np.reshape(matrix_entries(p, complex(k)), (2, 2)) for p in (pa, pb, pab))
        assert np.allclose(b @ a, ab, rtol=1e-11, atol=1e-13)


THICK_DOUBLE_BARRIER = [(100.0, 0.5), (50.0, 0.0), (100.0, 0.5)]


@pytest.mark.parametrize("name", ["symmetric", "asymmetric", "thick"])
def test_one_march_wave_matches_mpmath(name, request):
    """t, r and phi over [0, L] match a march in mpmath.

    On the benchmark structures, t and r within 1e-11 absolutely and phi
    at 23 points within 1e-11 of its largest modulus, against 40 digits;
    the energies run from deep in the barriers to 4x the barrier top.  On
    the thick double barrier, against 50 digits, phi at 251 points within
    1e-13 of its largest modulus and phi(L) within 1e-13 of |t| of t: there
    |t| is 1.7e-9 and 1.0e-6, and a march from the incident side that forms
    phi as a sum of two growing waves cancels.
    """
    if name == "thick":
        profile, dps, n_points, tol, energies = build_profile(THICK_DOUBLE_BARRIER), 50, 251, 1e-13, (0.01, 0.2)
    else:
        profile, dps, n_points, tol = request.getfixturevalue(f"{name}_profile"), 40, 23, 1e-11
        energies = (0.01, 0.0378, 0.1, 0.2, 0.3257, 0.45, 0.9, 2.0)
    xs = np.linspace(0.0, profile.total_length, n_points)
    for e in energies:
        state = stationary_state(profile, e)
        with mpmath.workdps(dps):
            t, r, phi = oracles.scattering(profile, profile.wavevector(e), xs, mpmath)
        t, r, phi = complex(t), complex(r), np.array(phi, dtype=complex)
        assert abs(state.transmission_amplitude - t) <= 1e-11, e
        assert abs(state.reflection_amplitude - r) <= 1e-11, e
        assert np.max(np.abs(state.phi(xs) - phi)) <= tol * np.max(np.abs(phi)), e
        if name == "thick":
            assert abs(state.phi(profile.total_length) - t) <= 1e-13 * abs(t), e


def test_stationary_state_marches_once(symmetric_profile, monkeypatch):
    """t, r and phi come from one march of one wave on the mirrored profile, with no transfer-matrix call."""
    calls = []
    march = scattering._march

    def counting(profile, k):
        calls.append((profile.segments, np.shape(k)))
        return march(profile, k)

    monkeypatch.setattr(scattering, "_march", counting)
    state = stationary_state(symmetric_profile, 0.2)
    state.phi(np.linspace(0.0, 160.0, 9))
    assert calls == [(symmetric_profile.segments[::-1], ())]


def test_wave_satisfies_schroedinger_equation(symmetric_profile):
    """Finite-difference psi'' must match (2m/hbar^2)(V - E) psi segment-wise."""
    p = symmetric_profile
    c2 = p.hbar2_over_2m
    e = 0.2
    s = stationary_state(p, e)
    h = 0.01
    for a, b, (w, v) in zip(p.boundaries[:-1], p.boundaries[1:], p.segments):
        xs = np.linspace(a + 5 * h, b - 5 * h, 25)
        second = (s.phi(xs + h) - 2.0 * s.phi(xs) + s.phi(xs - h)) / h**2
        rhs = (v - e) / c2 * s.phi(xs)
        scale = np.max(np.abs(rhs)) + 1e-30
        assert np.max(np.abs(second - rhs)) / scale < 1e-6


def test_wave_continuity_at_boundaries(symmetric_profile):
    """phi and phi' are continuous at every interface, phi' from second-order one-sided differences."""
    s = stationary_state(symmetric_profile, 0.15)
    eps, h = 1e-9, 1e-3
    for b in symmetric_profile.boundaries[1:-1]:
        left, right = s.phi(b - eps), s.phi(b + eps)
        assert abs(left - right) / abs(right) < 1e-8
        at = s.phi(b)
        dl = (3.0 * at - 4.0 * s.phi(b - h) + s.phi(b - 2.0 * h)) / (2.0 * h)
        dr = (-3.0 * at + 4.0 * s.phi(b + h) - s.phi(b + 2.0 * h)) / (2.0 * h)
        assert abs(dl - dr) / abs(dr) < 1e-7


def test_free_wave_has_unit_modulus():
    free = build_profile([(120.0, 0.0)])
    for x in (0.0, 13.7, 60.0, 120.0):
        assert abs(abs(stationary_wave(free, 0.21, x)) - 1.0) < 1e-12


def test_wave_rejects_out_of_range_position(symmetric_profile, symmetric_poles):
    """A position outside [0, L], NaN included, is refused by phi and by the Gamow function alike, by name."""
    for x, text in ((-1.0, r"-1\.0"), (161.0, r"161\.0"), (math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf")):
        with pytest.raises(ValueError, match=rf"^position {text} outside \[0, 160\.0\] A$"):
            stationary_wave(symmetric_profile, 0.1, x)
        with pytest.raises(ValueError, match=rf"^position {text} outside \[0, 160\.0\] A$"):
            symmetric_poles[0].u(np.array([80.0, x]))


def on_segment_height(c2, height):
    """A float energy whose grid wavevector squares exactly to height / c2, or None.

    Searches 64 floats either side of ``height``; about half of all heights
    have one.
    """
    lo = hi = height
    for _ in range(64):
        for e in (lo, hi):
            k = math.sqrt(e / c2)
            if k * k == height / c2:
                return e
        lo, hi = np.nextafter(lo, 0.0), np.nextafter(hi, np.inf)
    return None


def test_stationary_state_on_segment_height(symmetric_profile):
    """At E = barrier height k is not nudged; t, r and phi match a 50-digit march."""
    p = symmetric_profile
    e = on_segment_height(p.hbar2_over_2m, 0.5)
    state = stationary_state(p, e)
    k = p.wavevector(e)
    assert state.k == k and state.energy_ev == e
    xs = np.linspace(0.0, p.total_length, 23)
    with mpmath.workdps(50):
        t, r, phi = oracles.scattering(p, k, xs, mpmath)
    phi = np.array(phi, dtype=complex)
    assert abs(state.transmission_amplitude - complex(t)) <= 5e-10
    assert abs(state.reflection_amplitude - complex(r)) <= 5e-10
    assert np.max(np.abs(state.phi(xs) - phi)) <= 5e-10 * np.max(np.abs(phi))


@pytest.mark.parametrize("name, height", [("symmetric", 0.5), ("asymmetric", 0.3)])
def test_phi_on_and_near_a_segment_height_matches_mpmath(name, height, request):
    """t and phi within 5e-10 of a 50-digit march on a barrier top and up to 1e-10 off it.

    The energies are the height V itself (on the symmetric structure k^2
    equals V / c2 exactly; on the asymmetric one it misses by one rounding)
    and V (1 +- 1e-13), V (1 +- 1e-12) and V (1 +- 1e-10); phi is compared
    at 23 points relative to its largest modulus, t absolutely.  Each leaves
    kappa at or near 0, where the amplitude march cancels as eps / |kappa w|.
    """
    profile = request.getfixturevalue(f"{name}_profile")
    xs = np.linspace(0.0, profile.total_length, 23)
    for e in (height * (1.0 + d) for d in (0.0, 1e-13, -1e-13, 1e-12, -1e-12, 1e-10, -1e-10)):
        state = stationary_state(profile, e)
        with mpmath.workdps(50):
            t, _, phi = oracles.scattering(profile, profile.wavevector(e), xs, mpmath)
        phi = np.array(phi, dtype=complex)
        assert abs(state.transmission_amplitude - complex(t)) <= 5e-10, e
        assert np.max(np.abs(state.phi(xs) - phi)) <= 5e-10 * np.max(np.abs(phi)), e


def test_wave_lobes_at_resonances(symmetric_profile, symmetric_poles):
    xs = np.linspace(30.0, 130.0, 2001)
    # ground resonance: single lobe peaking mid-well
    phi2 = np.abs(stationary_state(symmetric_profile, symmetric_poles[0].eps_ev).phi(xs)) ** 2
    assert abs(xs[np.argmax(phi2)] - 80.0) < 1.0
    # first excited: two lobes, the left one near x = 48
    phi2 = np.abs(stationary_state(symmetric_profile, symmetric_poles[1].eps_ev).phi(xs)) ** 2
    maxima = xs[1:-1][(phi2[1:-1] > phi2[:-2]) & (phi2[1:-1] > phi2[2:])]
    assert len(maxima) == 2
    assert abs(maxima[0] - 48.0) < 2.0
    assert phi2.max() / phi2.min() > 50.0  # pronounced node between the lobes


def test_resonant_peak_transmission_batch_entries(symmetric_profile):
    # an array of k and each k alone agree
    ks = np.asarray([0.02, 0.0512, 0.0757])
    batch = _m22(symmetric_profile, ks)
    for i, k in enumerate(ks):
        m22 = _m22(symmetric_profile, complex(k))
        assert complex(m22) == pytest.approx(complex(batch[i]), rel=1e-14)


def box_eigenvalues_below_zero(segments, mass_factor=0.067, pad=1500.0, h=0.05):
    """Eigenvalues in (min V, 0) of a finite-difference Hamiltonian in a hard-wall box.

    Independent oracle for bound states: the profile sits between ``pad``
    angstrom of zero potential on each side; grid nodes lie midway between
    segment edges, so each node sees one segment height.
    """
    from scipy.linalg import eigh_tridiagonal

    c2 = 3.80998 / mass_factor
    edges = np.concatenate([[0.0], np.cumsum([w for w, _ in segments])])
    x = np.arange(-pad + 0.5 * h, edges[-1] + pad, h)
    v = np.zeros_like(x)
    for (lo, hi), (_, height) in zip(zip(edges[:-1], edges[1:]), segments):
        v[(x > lo) & (x < hi)] = height
    diag = 2.0 * c2 / h**2 + v
    off = np.full(len(x) - 1, -c2 / h**2)
    return eigh_tridiagonal(diag, off, eigvals_only=True, select="v", select_range=(min(v), 0.0))


@pytest.mark.parametrize("segments", [
    [(30.0, 0.3), (100.0, -0.1), (30.0, 0.3)],
    [(200.0, -0.5)],
    [(20.0, -0.2), (40.0, 0.4), (60.0, -0.05)],
])
def test_bound_state_energies_match_finite_difference_box(segments):
    energies = bound_state_energies(build_profile(segments))
    oracle = box_eigenvalues_below_zero(segments)
    assert len(energies) == len(oracle) >= 1
    assert np.all(np.diff(energies) > 0.0)  # lowest first
    np.testing.assert_allclose(energies, oracle, atol=2e-5)


@pytest.mark.parametrize("segments", [
    [(30.0, 0.3), (100.0, -0.1), (30.0, 0.3)],
    [(200.0, -0.5)],
    [(20.0, -0.2), (40.0, 0.4), (60.0, -0.05)],
    [(1.0, -1e-4)],
    [(50.0, 0.2), (300.0, -0.3), (10.0, 0.0), (40.0, -0.6), (50.0, 0.2)],
])
def test_lockstep_bisection_matches_brent(segments, monkeypatch):
    """Every bound state agrees to 1e-13 with Brent's method started around it."""
    from scipy.optimize import brentq

    profile = build_profile(segments)
    c2 = profile.hbar2_over_2m

    def m22(q):
        return _m22(profile, 1j * np.asarray(q)).real

    calls = []
    monkeypatch.setattr(scattering, "_m22", lambda p, k: calls.append(np.size(k)) or _m22(p, k))
    energies = bound_state_energies(profile)
    q = np.sqrt(-energies / c2)
    # a bracket 1e-9 either side of each root; brentq raises if it holds no sign change
    oracle = [-c2 * brentq(m22, r * (1 - 1e-9), r * (1 + 1e-9), xtol=1e-15 * r) ** 2 for r in q]
    np.testing.assert_allclose(energies, oracle, rtol=1e-13, atol=0.0)
    assert len(calls) <= 60  # one grid call, then one call per bisection round
    assert all(n <= len(energies) for n in calls[1:])


def test_bound_states_with_a_grid_point_on_kappa_zero():
    """The q grid ends on q_max, where the well's kappa is exactly 0; all five states are found."""
    segments = [(40.0, 0.5), (60.0, -0.125), (40.0, 0.5)]
    profile = build_profile(segments, mass_factor=3.80998 / 2.0)
    assert profile.hbar2_over_2m == 2.0 and 0.25**2 == 0.125 / 2.0
    energies = bound_state_energies(profile)
    oracle = box_eigenvalues_below_zero(segments, mass_factor=3.80998 / 2.0)
    assert len(energies) == len(oracle) == 5
    np.testing.assert_allclose(energies, oracle, atol=2e-5)


def test_bound_state_energies_empty_without_negative_heights():
    assert bound_state_energies(build_profile([(30.0, 0.5), (100.0, 0.0), (30.0, 0.5)])).size == 0
    assert bound_state_energies(build_profile([(30.0, 0.3), (100.0, 0.05), (30.0, 0.3)])).size == 0


def test_weakly_bound_state_near_zero_energy():
    # a shallow narrow well binds one state at E ~ -(V w)^2 / (4 c2), far
    # below the uniform q grid's first point
    profile = build_profile([(1.0, -1e-4)])
    c2 = profile.hbar2_over_2m
    energies = bound_state_energies(profile)
    assert len(energies) == 1
    assert energies[0] == pytest.approx(-((1e-4 * 1.0) ** 2) / (4.0 * c2), rel=1e-3)
