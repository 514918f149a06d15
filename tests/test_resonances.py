import cmath
import dataclasses
import warnings

import mpmath
import numpy as np
import pytest

import oracles
import rtbuildup.resonances as resonances
import rtbuildup.scattering as scattering
from rtbuildup import (
    BoundStateError,
    GamowResidualError,
    ResonantState,
    build_profile,
    find_poles,
    one_term_phi,
    stationary_state,
)
from rtbuildup.resonances import gamow_state, refine_pole, winding_number
from rtbuildup.scattering import _m22, transmission_scan

def m22(profile, k):
    """m22(k), whose fourth-quadrant zeros are the resonance poles."""
    return complex(_m22(profile, complex(k)))


# tabulated resonance parameters for the two benchmark structures, meV
KNOWN_SYMMETRIC = [(37.8, 0.12), (149.2, 1.40), (325.7, 8.60)]
KNOWN_ASYMMETRIC = [(89.1, 2.4)]


def gamow_norm_gauss_legendre(state, order=240):
    """Normalization integral via fixed-order Gauss-Legendre per segment.

    Independent of the closed-form segment integrals used by the implementation.
    """
    nodes, weights = np.polynomial.legendre.leggauss(order)
    total = 0j
    edges = state.profile.boundaries
    for a, b in zip(edges[:-1], edges[1:]):
        xs = 0.5 * (b - a) * nodes + 0.5 * (a + b)
        total += 0.5 * (b - a) * np.sum(weights * state.u(xs) ** 2)
    surface = 1j * (state.u0**2 + state.u(state.profile.total_length) ** 2) / (2.0 * state.k)
    return total + surface


def test_symmetric_pole_table(symmetric_poles):
    assert len(symmetric_poles) == 3
    for state, (eps, gam) in zip(symmetric_poles, KNOWN_SYMMETRIC):
        assert state.eps_mev == pytest.approx(eps, abs=0.25)
        assert state.gamma_mev == pytest.approx(gam, abs=0.05)


def test_asymmetric_pole_table(asymmetric_poles):
    assert len(asymmetric_poles) == 1
    state = asymmetric_poles[0]
    assert state.eps_mev == pytest.approx(89.1, abs=0.15)
    assert state.gamma_mev == pytest.approx(2.4, abs=0.05)


def test_poles_in_fourth_quadrant_sorted(symmetric_poles):
    eps = [s.eps_ev for s in symmetric_poles]
    assert eps == sorted(eps)
    for s in symmetric_poles:
        assert s.k.real > 0.0 and s.k.imag < 0.0
        assert s.gamma_ev > 0.0


def test_lifetime_definition_consistency(symmetric_poles):
    for s in symmetric_poles:
        hbar = s.profile.constants.hbar
        assert s.lifetime_fs == hbar / s.gamma_ev
        assert s.r_ratio == s.eps_ev / s.gamma_ev


def test_pole_energy_is_derived_from_k(symmetric_poles):
    """E_n = hbar^2 k_n^2 / 2m* of the state's own k, and no constructor takes it or a default."""
    for s in symmetric_poles:
        rebuilt = ResonantState(s.k, s.profile, s.u0, s._wave)
        assert rebuilt.energy_ev == s.profile.constants.energy_ev(s.k) == s.energy_ev
        assert rebuilt == s
    assert all(f.default is f.default_factory is dataclasses.MISSING for f in dataclasses.fields(ResonantState))
    s = symmetric_poles[0]
    with pytest.raises(TypeError):
        ResonantState(k=s.k, energy_ev=s.energy_ev, profile=s.profile, u0=s.u0, _wave=s._wave)


def test_sharpness_ratios(symmetric_poles):
    assert symmetric_poles[0].r_ratio == pytest.approx(315.0, rel=0.02)
    assert symmetric_poles[2].r_ratio == pytest.approx(37.9, rel=0.02)


def test_free_profile_has_no_poles():
    free = build_profile([(160.0, 0.0)])
    assert find_poles(free, 0.4) == []
    assert winding_number(free, (0.005, 0.1), (-0.1, 0.0)) == 0


def test_pole_symmetry_partner(symmetric_profile, symmetric_poles):
    # -k_n* satisfies the pole condition as well (third-quadrant partner)
    for s in symmetric_poles:
        residual = abs(m22(symmetric_profile, -s.k.conjugate()))
        scale = abs(m22(symmetric_profile, -s.k.conjugate() * (1.0 + 1e-4)))
        assert residual / scale < 1e-10


def test_winding_count_matches_poles(symmetric_profile, symmetric_poles):
    c = symmetric_profile.constants
    k_hi = c.wavevector(0.4)
    count = winding_number(symmetric_profile, (0.5 * c.wavevector(0.001), k_hi), (-k_hi, 0.0))
    assert count == len(symmetric_poles)


def test_gamow_boundary_conditions(symmetric_poles):
    """u'(0) = -ik u(0) and u'(L) = ik u(L), u' from second-order one-sided differences."""
    h = 1e-3
    for s in symmetric_poles:
        du0 = (-3.0 * s.u(0.0) + 4.0 * s.u(h) - s.u(2.0 * h)) / (2.0 * h)
        assert abs(du0 + 1j * s.k * s.u0) / (abs(s.k) * abs(s.u0)) < 1e-6
        length = s.profile.total_length
        dul = (3.0 * s.u(length) - 4.0 * s.u(length - h) + s.u(length - 2.0 * h)) / (2.0 * h)
        u_end = s.u(length)
        assert abs(dul - 1j * s.k * u_end) / (abs(s.k) * abs(u_end)) < 1e-6


def test_gamow_normalization_against_gauss_legendre(
    symmetric_poles, asymmetric_poles, symmetric_poles_8ev
):
    for s in list(symmetric_poles) + list(asymmetric_poles) + list(symmetric_poles_8ev):
        norm = gamow_norm_gauss_legendre(s)
        assert abs(norm - 1.0) < 1e-8


def test_gamow_rejects_non_pole(symmetric_profile, symmetric_poles):
    k_bad = symmetric_poles[0].k * (1.0 + 1e-3)
    with pytest.raises(GamowResidualError):
        gamow_state(symmetric_profile, k_bad)
    with pytest.raises(GamowResidualError):
        gamow_state(symmetric_profile, 0.02 + 0.001j)  # wrong quadrant


def test_gamow_normalization_that_is_not_finite_is_refused():
    """A 1e-200 A barrier: the kappa w floor makes the marched amplitudes overflow in u^2's integral."""
    profile = build_profile([(1e-200, 0.3), (50.0, 0.0), (30.0, 0.3)])
    with pytest.raises(GamowResidualError, match="normalization .* is not finite"):
        find_poles(profile, 0.3)


def test_gamow_accepts_a_state_that_decays_across_the_structure():
    """The sixth pole's |u(L)| is 3e-7 of its |u(0)|: the boundary residual is judged against max |u|."""
    profile = build_profile([(9.83, 0.05), (45.73, 0.388), (16.53, 0.427), (43.91, 0.275), (54.20, 0.333)])
    poles = find_poles(profile, 1.635)
    assert len(poles) == 8
    decaying = poles[5]
    assert abs(decaying.u(profile.total_length)) < 1e-6 * abs(decaying.u0)


def test_gamow_lobe_shapes_match_stationary_wave(symmetric_profile, symmetric_poles):
    """|u_n|^2 tracks |phi(x, eps_n)|^2 inside the structure (shape oracle)."""
    xs = np.linspace(0.0, 160.0, 1601)
    for n, s in enumerate(symmetric_poles[:2], start=1):
        u2 = np.abs(s.u(xs)) ** 2
        phi2 = np.abs(stationary_state(symmetric_profile, s.eps_ev).phi(xs)) ** 2
        shape_u = u2 / np.max(u2)
        shape_phi = phi2 / np.max(phi2)
        assert np.max(np.abs(shape_u - shape_phi)) < 0.02
        maxima = xs[1:-1][(u2[1:-1] > u2[:-2]) & (u2[1:-1] > u2[2:])]
        interior = maxima[(maxima > 31.0) & (maxima < 129.0)]
        assert len(interior) == n  # n lobes for the n-th resonance


def test_gamow_second_state_node_near_center(symmetric_poles):
    s = symmetric_poles[1]
    xs = np.linspace(60.0, 100.0, 4001)
    u2 = np.abs(s.u(xs)) ** 2
    x_node = xs[np.argmin(u2)]
    assert abs(x_node - 80.0) < 2.0
    assert u2.min() < 1e-3 * u2.max()


def test_one_term_phi_accuracy_and_trend(symmetric_profile, symmetric_poles):
    positions = {1: 80.0, 2: 48.0, 3: 80.0}
    errors = []
    for n, s in enumerate(symmetric_poles, start=1):
        x = positions[n]
        full = stationary_state(symmetric_profile, s.eps_ev).phi(x)
        approx = one_term_phi(s, s.eps_ev, x)
        errors.append(abs(approx - full) / abs(full))
    assert errors[0] < 0.05  # sharp ground resonance: better than a few percent
    assert errors[0] < errors[1] < errors[2]  # accuracy improves with R_n


def test_one_term_phi_proportional_to_gamow_function(symmetric_poles):
    s = symmetric_poles[1]
    xs = np.asarray([40.0, 55.0, 70.0, 95.0, 110.0])
    ratios = [one_term_phi(s, s.eps_ev, x) / s.u(x) for x in xs]
    assert np.allclose(ratios, ratios[0], rtol=1e-10)


def test_one_term_phi_matches_transient_factor_identity(symmetric_poles):
    # i T_n with T_n = 2k u(0) u(x) / (k^2 - k_n^2) is the same expression
    s = symmetric_poles[0]
    k = s.profile.constants.wavevector(s.eps_ev)
    x = 80.0
    t_n = 2.0 * k * s.u0 * s.u(x) / (k * k - s.k * s.k)
    assert 1j * t_n == one_term_phi(s, s.eps_ev, x)


@pytest.mark.parametrize("energy", [float("nan"), float("inf"), float("-inf"), 0.0, -1.0])
def test_non_finite_or_non_positive_energy_is_refused(symmetric_poles, energy):
    s = symmetric_poles[0]
    for call in (s.profile.constants.wavevector, lambda e: one_term_phi(s, e, 80.0),
                 lambda e: stationary_state(s.profile, e)):
        with pytest.raises(ValueError, match="energy must be positive and finite"):
            call(energy)


def test_pole_recovery_above_barrier(symmetric_profile):
    """Broad poles above the barrier top are found even without scan peaks."""
    poles = find_poles(symmetric_profile, 1.0)
    assert len(poles) >= 5
    eps = [s.eps_mev for s in poles]
    assert eps == sorted(eps)
    assert eps[3] > 500.0  # above the 0.5 eV barrier top


def test_single_mass_reproduces_all_seven_tabulated_values():
    """A mass scan lands on one m* matching every tabulated resonance at once."""
    m_star = 0.06693
    sym = build_profile([(30, 0.5), (100, 0.0), (30, 0.5)], mass_factor=m_star)
    asym = build_profile([(30, 0.3), (50, 0.0), (100, 0.3)], mass_factor=m_star)
    states = find_poles(sym, 0.4) + find_poles(asym, 0.3)
    for state, (eps, gam) in zip(states, KNOWN_SYMMETRIC + KNOWN_ASYMMETRIC):
        assert state.eps_mev == pytest.approx(eps, abs=0.15)
        assert state.gamma_mev == pytest.approx(gam, abs=0.05)


def search_rectangle(profile, e_max_ev, e_min_ev=1e-3):
    """The rectangle ``find_poles`` certifies: Re k in [k(e_min)/2, k(e_max)], Im k in [-k(e_max), 0)."""
    c = profile.constants
    k_hi = c.wavevector(e_max_ev) * (1.0 + 3e-9)
    return (0.5 * c.wavevector(e_min_ev), k_hi), (-k_hi, 0.0)


@pytest.mark.parametrize("name", ["symmetric", "asymmetric"])
@pytest.mark.parametrize("e_max", [2.0, 16.0, 48.0])
def test_lifted_winding_count_matches_count_on_the_axis(name, e_max, request, monkeypatch):
    """find_poles counts on the rectangle lifted by one edge step above Im k = 0: same count, fewer calls.

    The strip between holds no zero of m22, because a real potential has none
    with Im k > 0 and Re k > 0.
    """
    profile = request.getfixturevalue(f"{name}_profile")
    (k_lo, k_hi), (im_lo, _top) = search_rectangle(profile, e_max)
    calls = counting_m22_sizes(monkeypatch)
    on_axis = winding_number(profile, (k_lo, k_hi), (im_lo, 0.0))
    n_on_axis = len(calls)
    lifted = winding_number(profile, (k_lo, k_hi), (im_lo, (k_hi - k_lo) / resonances.SAMPLES_PER_EDGE))
    assert lifted == on_axis > 0
    assert len(calls) - n_on_axis <= n_on_axis


def counting_m22_sizes(monkeypatch):
    """Record the number of momenta of every m22 evaluation the pole search makes."""
    sizes = []
    m22 = scattering._m22

    def counting(profile, k):
        sizes.append(np.size(k))
        return m22(profile, k)

    monkeypatch.setattr(scattering, "_m22", counting)
    monkeypatch.setattr(resonances, "_m22", counting)
    return sizes


def recording_newton_batches(monkeypatch, steps=None):
    """Record (seeds, known poles, contour passes so far) of every Newton batch of the pole search."""
    batches = []
    newton = resonances._newton

    def recording(profile, seeds, known=()):
        batches.append((len(seeds), len(known), None if steps is None else len(steps)))
        return newton(profile, seeds, known=known)

    monkeypatch.setattr(resonances, "_newton", recording)
    return batches


def deep_rectangle(profile, e_max_ev):
    """The rectangle ``find_poles`` counts on: its search rectangle with the top edge lifted by one edge step."""
    (k_lo, k_hi), (im_lo, _top) = search_rectangle(profile, e_max_ev)
    return (k_lo, k_hi), (im_lo, (k_hi - k_lo) / resonances.SAMPLES_PER_EDGE)


def lifted_count(profile, e_max_ev):
    """The count ``find_poles`` certifies, on ``deep_rectangle``."""
    return winding_number(profile, *deep_rectangle(profile, e_max_ev))


@pytest.mark.parametrize("name, n_poles, n_strips", [("symmetric", 26, 4), ("asymmetric", 30, 4)])
def test_moment_recovery_of_several_missing_poles(name, n_poles, n_strips, request, monkeypatch):
    """To 16 eV the count exceeds 8: ceil(count / 8) shallow strips run their moment passes in lockstep.

    The first Newton batch holds every strip's first moment pass, one seed
    per pole its contour counts, with nothing known; a later batch, if any,
    divides out every pole found so far.  Each Newton round evaluates m22
    once for all the strips' seeds.
    """
    profile = request.getfixturevalue(f"{name}_profile")
    count = lifted_count(profile, 16.0)
    batches = recording_newton_batches(monkeypatch)
    sizes = counting_m22_sizes(monkeypatch)
    poles = find_poles(profile, 16.0)
    assert len(poles) == count == n_poles
    assert batches[0][:2] == (n_poles, 0)  # the strips' counts add up to the deep count
    assert all(seeds <= 8 * n_strips and known >= n_poles - seeds for seeds, known, _ in batches[1:])
    assert 3 * n_poles in sizes  # k and k +- h of every seed in one call
    ks = [s.k for s in poles]
    assert min(abs(a - b) for i, a in enumerate(ks) for b in ks[i + 1:]) > 1e-6
    eps = [s.eps_ev for s in poles]
    assert eps == sorted(eps) and eps[-1] <= 16.0


def peak_seeded_poles(profile, e_max_ev):
    """Reference: Newton from each transmission peak of the scan, one seed at a time."""
    c2 = profile.constants.hbar2_over_2m
    peaks = transmission_scan(profile, resonances.SCAN_FLOOR_EV, e_max_ev).peaks
    return [refine_pole(profile, cmath.sqrt((p.energy_ev - 0.5j * p.gamma_estimate_ev) / c2)) for p in peaks]


@pytest.mark.parametrize("name, n_poles", [("symmetric", 9), ("asymmetric", 10)])
def test_search_with_no_peak_seeds_finds_every_pole_from_moments(name, n_poles, request):
    """The moments alone find every pole, among them each one Newton reaches from a transmission peak."""
    profile = request.getfixturevalue(f"{name}_profile")
    got = [s.k for s in find_poles(profile, 2.0)]
    assert len(got) == lifted_count(profile, 2.0) == n_poles
    reference = peak_seeded_poles(profile, 2.0)
    assert len(reference) > 0
    for want in reference:
        assert min(abs(k - want) for k in got) <= 1e-12 * abs(want)


@pytest.mark.parametrize("name, e_max", [("asymmetric", 1.2), ("symmetric", 2.0)])
def test_contour_moments_match_power_sums_of_the_poles(name, e_max, request):
    """On the deep contour of 7 and 9 poles, every moment s_p, p <= 7, is the power sum of the poles to 1e-3.

    The moments are the power sums of the moment roots, by Newton's
    identities, in the rectangle's centred, scaled momentum z.  The midpoint
    sums of dlog g missed by up to 9e-3 and 1.2e-2 at p = 7: second order,
    against the fourth order of Simpson on the by-parts form.
    """
    profile = request.getfixturevalue(f"{name}_profile")
    rect = (re_lo, re_hi), (im_lo, im_hi) = deep_rectangle(profile, e_max)
    samples, dlog = resonances._contour_steps(profile, resonances._edge_samples(profile, [rect])[0])
    poles = np.array([s.k for s in find_poles(profile, e_max)])
    count = resonances._zero_count(dlog)
    assert len(poles) == count == {"asymmetric": 7, "symmetric": 9}[name]
    seeds = resonances._moment_roots(rect, samples, dlog, count)
    center = complex(0.5 * (re_lo + re_hi), 0.5 * (im_lo + im_hi))
    scale = 0.5 * max(re_hi - re_lo, im_hi - im_lo)
    moments, exact = (((ks - center) / scale)[:, np.newaxis] ** np.arange(1, 8) for ks in (seeds, poles))
    assert np.max(np.abs(moments.sum(axis=0) - exact.sum(axis=0))) <= 1e-3


@pytest.mark.parametrize("name, e_max, n_poles", [("asymmetric", 1.2, 7), ("symmetric", 1.2, 6), ("symmetric", 2.0, 9)])
def test_moment_seeds_from_a_refined_contour_reach_every_pole(name, e_max, n_poles, request):
    """Seeds from the on-axis rectangle, whose contour ``_contour_steps`` bisects, fall in every pole's basin.

    The moments integrate the uniform samples only, which the inserted
    points push along the arrays; each seed lies closest to its own pole,
    and one Newton run from all of them returns every pole of the search.
    """
    profile = request.getfixturevalue(f"{name}_profile")
    rect = search_rectangle(profile, e_max)
    [ring] = resonances._edge_samples(profile, [rect])
    samples, dlog = resonances._contour_steps(profile, ring)
    k, _, grid = samples
    assert k.size > ring[0].size  # bisected
    assert np.array_equal(k[grid], ring[0])
    poles = np.array([s.k for s in find_poles(profile, e_max)])
    assert len(poles) == resonances._zero_count(dlog) == n_poles
    seeds = resonances._moment_roots(rect, samples, dlog, n_poles)
    nearest = [int(np.argmin(np.abs(poles - seed))) for seed in seeds]
    assert sorted(nearest) == list(range(n_poles))
    ks, converged = resonances._newton(profile, seeds)
    assert converged.all()
    assert all(np.min(np.abs(poles - k)) <= 1e-12 * abs(k) for k in ks)
    assert len({int(np.argmin(np.abs(poles - k))) for k in ks}) == n_poles


def test_asymmetric_search_to_1_2_ev_call_budget(asymmetric_profile, monkeypatch):
    """find_poles(asymmetric, 1.2 eV): Simpson moments seed all 7 poles in one pass, <= 8 m22 calls.

    The midpoint moments took 15 calls and a second pass.
    """
    calls = counting_m22_sizes(monkeypatch)
    assert len(find_poles(asymmetric_profile, 1.2)) == 7
    assert 0 < len(calls) <= 8


@pytest.mark.parametrize("name", ["symmetric", "asymmetric"])
def test_find_poles_runs_no_transmission_scan(name, request, monkeypatch):
    """The search takes no seed from the scan, which stays importable where the benchmark's tracer binds it."""
    def no_scan(*args, **kwargs):
        raise AssertionError("find_poles ran the transmission scan")

    assert resonances.transmission_scan is scattering.transmission_scan
    monkeypatch.setattr(resonances, "transmission_scan", no_scan)
    monkeypatch.setattr(scattering, "transmission_scan", no_scan)
    profile = request.getfixturevalue(f"{name}_profile")
    assert len(find_poles(profile, 0.4)) == 3
    assert len(find_poles(profile, 16.0)) == {"symmetric": 26, "asymmetric": 30}[name]


@pytest.mark.parametrize(
    "name, e_max, n_poles, past",
    [("symmetric", 1.0, 5, 0.132723 - 0.011112j), ("asymmetric", 1.6, 8, 0.167824 - 0.014440j)],
)
def test_find_poles_keeps_the_poles_up_to_the_ceiling_wavevector(name, e_max, n_poles, past, request):
    """The ceiling bounds Re k_n by k(e_max), as the search rectangle does, not eps_n by e_max.

    The broad pole ``past`` has eps_n below e_max but Re k_n just beyond
    k(e_max): it is left out, and a search to 1.5 e_max finds it.
    """
    profile = request.getfixturevalue(f"{name}_profile")
    k_max = profile.constants.wavevector(e_max)
    poles = find_poles(profile, e_max)
    assert len(poles) == n_poles
    assert all(s.k.real <= k_max for s in poles)
    [beyond] = [s for s in find_poles(profile, 1.5 * e_max) if s.k.real > k_max and s.eps_ev <= e_max]
    assert abs(beyond.k - past) < 1e-6
    assert beyond.k.real < 1.001 * k_max


@pytest.mark.parametrize(
    "name, e_max, n_poles", [("symmetric", 256.0, 108), ("asymmetric", 180.0, 101), ("asymmetric", 256.0, 121)]
)
def test_strips_reach_ceilings_the_deep_moments_could_not(name, e_max, n_poles, request):
    """The one deep rectangle stopped 10-14 poles short of these counts; the shallow strips find them all."""
    profile = request.getfixturevalue(f"{name}_profile")
    poles = find_poles(profile, e_max)
    assert len(poles) == lifted_count(profile, e_max) == n_poles
    assert all(-resonances._STRIP_DEPTH <= s.k.imag < 0.0 for s in poles)


@pytest.fixture(scope="module")
def below_band_profile():
    """Weak barriers whose search to 100 eV counts 14 of its 15 poles below the strips' band."""
    return build_profile([(10.0, 0.1), (20.0, 0.0), (10.0, 0.1)])


def test_poles_below_the_strip_band_are_recovered_from_the_deep_rectangle(below_band_profile, monkeypatch):
    """Weak barriers to 100 eV: the strips count one pole, the rectangle below them the other 14.

    The rest of the count lies below Im k = -0.1, the lowest at -0.205.  The
    strips and that rectangle run in one loop, so the first Newton batch
    holds all 15 seeds, and the second the 3 missing with the 12 found poles
    divided out.  Each pole is a zero of a 40-digit m22 to 1e-13 of |k|.
    """
    profile = below_band_profile
    calls = []
    recover = resonances._recover_poles

    def recording(profile, rects, samples):
        calls.append(rects)
        return recover(profile, rects, samples)

    monkeypatch.setattr(resonances, "_recover_poles", recording)
    batches = recording_newton_batches(monkeypatch)
    poles = find_poles(profile, 100.0)
    assert len(poles) == lifted_count(profile, 100.0) == 15
    [(*strips, below)] = calls
    assert len(strips) == 2 and all(im_lo == -resonances._STRIP_DEPTH for _, (im_lo, _) in strips)
    assert below[1][1] == -resonances._STRIP_DEPTH  # the rectangle's top is the band's floor
    assert [(seeds, known) for seeds, known, _ in batches] == [(15, 0), (3, 12)]
    assert sum(s.k.imag < -resonances._STRIP_DEPTH for s in poles) == 14
    assert min(s.k.imag for s in poles) == pytest.approx(-0.205, abs=1e-3)
    with mpmath.workdps(40):
        for state in poles:
            assert oracles.newton_step(profile, state.k, 1e-20, mpmath) <= 1e-13 * abs(state.k)


@pytest.mark.parametrize("e_max", [1e300, 1e308])
def test_overflowing_ceiling_is_refused_without_a_warning(symmetric_profile, e_max):
    """At these ceilings a phase e^(i kappa w) underflows to 0 and the march divides by it: refused, unwarned."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="m22 overflows on the search contour"):
            find_poles(symmetric_profile, e_max)


def test_pole_search_call_budget_with_lockstep_newton(symmetric_profile, monkeypatch):
    """find_poles(symmetric, 2 eV): one call per contour and bisection round, one per Newton round; <= 40 in all."""
    calls = counting_m22_sizes(monkeypatch)
    assert len(find_poles(symmetric_profile, 2.0)) == 9
    assert 0 < len(calls) <= 40


def test_lockstep_newton_matches_one_seed_at_a_time(symmetric_profile, symmetric_poles_8ev, monkeypatch):
    """The 18 scan seeds to 8 eV refined together land where refine_pole takes each alone."""
    c2 = symmetric_profile.constants.hbar2_over_2m
    peaks = transmission_scan(symmetric_profile, 1e-3, 8.0).peaks
    seeds = [cmath.sqrt((p.energy_ev - 0.5j * p.gamma_estimate_ev) / c2) for p in peaks]
    assert len(seeds) == 18

    calls = counting_m22_sizes(monkeypatch)
    ks, converged = resonances._newton(symmetric_profile, seeds)
    rounds = len(calls)
    assert converged.all() and calls[0] == 3 * 18
    single_rounds = []
    for seed, k in zip(seeds, ks):
        calls.clear()
        assert abs(refine_pole(symmetric_profile, seed) - k) <= 1e-13 * abs(k)
        single_rounds.append(len(calls))
    assert rounds == max(single_rounds)  # one call per round for all seeds
    poles = [s.k for s in symmetric_poles_8ev]
    assert all(min(abs(k - p) for p in poles) <= 1e-13 * abs(k) for k in ks)


def test_dropped_seed_is_recovered_from_contour_moments(symmetric_profile, symmetric_poles, monkeypatch):
    """A moment root that never reaches Newton leaves a deficit that the next moment pass fills."""
    newton = resonances._newton
    seed_batches = []

    def dropping(profile, seeds, known=()):
        seeds = list(seeds)
        if not seed_batches:  # the first pass's three roots: lose one
            del seeds[1]
        seed_batches.append((len(seeds), len(known)))
        return newton(profile, seeds, known=known)

    monkeypatch.setattr(resonances, "_newton", dropping)
    poles = find_poles(symmetric_profile, 0.4)
    assert seed_batches == [(2, 0), (1, 2)]  # the second pass seeds the one missing pole
    assert len(poles) == len(symmetric_poles) == 3
    for got, want in zip(poles, symmetric_poles):
        assert abs(got.k - want.k) <= 1e-13 * abs(want.k)


def scalar_newton(profile, k, tol=1e-12, max_iter=100):
    """Reference: Newton with three scalar m22 evaluations per step."""
    for _ in range(max_iter):
        h = 1e-6 * max(abs(k), 1e-4)
        step = m22(profile, k) / ((m22(profile, k + h) - m22(profile, k - h)) / (2.0 * h))
        limit = 0.2 * max(abs(k), 1e-4)
        if abs(step) > limit:
            step *= limit / abs(step)
        k -= step
        if abs(step) < tol:
            return k
    raise AssertionError("reference Newton did not converge")


def test_one_call_newton_matches_scalar_newton(symmetric_poles_8ev):
    """Array and scalar m22 differ in the last ulp; the poles agree to 1e-13 relative."""
    profile = symmetric_poles_8ev[0].profile
    for state in symmetric_poles_8ev:
        seed = state.k * (1.0 + 1e-3 - 1e-3j)
        k = refine_pole(profile, seed)
        assert abs(k - scalar_newton(profile, seed)) <= 1e-13 * abs(k)
        assert abs(k - state.k) <= 1e-13 * abs(k)


def test_bound_state_refused():
    profile = build_profile([(30.0, 0.3), (100.0, -0.1), (30.0, 0.3)])
    with pytest.raises(BoundStateError, match=r"1 state\(s\) below E = 0, the lowest at -0\.0637"):
        find_poles(profile, 0.3)
    # a lifted well binds nothing: the search runs as usual
    assert len(find_poles(build_profile([(30.0, 0.3), (100.0, 0.05), (30.0, 0.3)]), 0.3)) >= 1


@pytest.mark.parametrize(
    "name, e_max, n_poles, n_strips", [("symmetric", 0.4, 3, 0), ("symmetric", 16.0, 26, 4), ("asymmetric", 16.0, 30, 4)]
)
def test_one_contour_per_strip(name, e_max, n_poles, n_strips, request, monkeypatch):
    """m22 is sampled once around the deep rectangle for the count, and once around all strips together.

    With at most 8 poles the moments run on the count's own samples, so the
    search samples one contour; bisection adds points, never resamples.
    """
    profile = request.getfixturevalue(f"{name}_profile")
    sizes = counting_m22_sizes(monkeypatch)
    assert len(find_poles(profile, e_max)) == n_poles
    ring = 4 * resonances.SAMPLES_PER_EDGE + 1
    assert [n for n in sizes if n >= ring] == [ring] + [n_strips * ring] * (n_strips > 0)


def test_recovery_that_finds_the_whole_deficit_runs_no_confirming_pass(symmetric_profile, monkeypatch):
    """Moment passes whose Newton returns exactly the missing poles end every strip with no confirming contour."""
    steps = resonances._contour_steps
    passes = []

    def counting_steps(*args, **kwargs):
        passes.append(1)
        return steps(*args, **kwargs)

    monkeypatch.setattr(resonances, "_contour_steps", counting_steps)
    batches = recording_newton_batches(monkeypatch, passes)
    poles = find_poles(symmetric_profile, 16.0)
    assert len(poles) == 26
    # (seeds, known, contour passes before it): the deep count and one pass per strip, then one batch for all
    assert batches == [(26, 0, 5)]
    assert len(passes) == 5


@pytest.mark.parametrize("name, e_max, n_poles", [("symmetric", 1.5, 7), ("asymmetric", 1.2, 7)])
def test_deep_search_takes_the_count_as_its_first_pass(name, e_max, n_poles, request, monkeypatch):
    """With at most 8 poles the count's steps of log m22 seed the first moment pass; none is taken twice.

    Every later pass divides out the poles found before it, so exactly one
    call sees no pole: the count's.
    """
    profile = request.getfixturevalue(f"{name}_profile")
    steps = resonances._contour_steps
    undeflated = []

    def recording_steps(profile, samples, known=()):
        undeflated.append(len(known) == 0)
        return steps(profile, samples, known)

    monkeypatch.setattr(resonances, "_contour_steps", recording_steps)
    batches = recording_newton_batches(monkeypatch, undeflated)
    assert len(find_poles(profile, e_max)) == n_poles <= resonances._STRIP_POLES
    assert undeflated[0] and sum(undeflated) == 1
    assert batches[0][2] == 1  # the first Newton batch follows the count alone


@pytest.mark.parametrize(
    "name, e_max, n_poles, budget",
    [
        ("symmetric", 16.0, 26, 8),
        ("asymmetric", 8.0, 21, 14),
        ("asymmetric", 16.0, 30, 12),
        ("below_band", 100.0, 15, 34),
    ],
)
def test_lockstep_strips_call_budget(name, e_max, n_poles, budget, request, monkeypatch):
    """One m22 call covers every strip's edges, and one per Newton round every rectangle's seeds.

    Run one strip after another, the first three searches took 21 / 23 / 30
    calls.  The last one's rectangle below the band took its own Newton
    rounds after the strips' ones, 35 calls in all.
    """
    profile = request.getfixturevalue(f"{name}_profile")
    sizes = counting_m22_sizes(monkeypatch)
    assert len(find_poles(profile, e_max)) == n_poles
    assert 0 < len(sizes) <= budget


WEAK_BARRIERS = [(10.0, 0.02), (20.0, 0.0), (10.0, 0.02)]


def test_newton_converges_deep_under_weak_barriers():
    """Newton from 400 seeds within 1e-3 of the weak-barrier pole near 0.45054 - 0.19748i converges from each.

    The product of full transfer matrices kept so few digits of m22 there
    that 145 of these seeds wandered in its rounding noise, 1.7e-11 wide,
    until they ran out of rounds, and the search to 32 eV stopped at
    "winding count 8 != 6".  The marched m22 pins the pole to 1e-13 and the
    search finds all 8 poles its count certifies.
    """
    profile = build_profile(WEAK_BARRIERS, mass_factor=0.067)
    draw = np.random.default_rng(7)
    seeds = 0.45054 - 0.19748j + 1e-3 * np.sqrt(draw.uniform(size=400)) * np.exp(2j * np.pi * draw.uniform(size=400))
    ks, converged = resonances._newton(profile, seeds)
    assert converged.all()
    assert np.max(np.abs(ks - ks[0])) <= 1e-13 * abs(ks[0])
    poles = find_poles(profile, 32.0)
    assert len(poles) == lifted_count(profile, 32.0) == 8
    assert min(abs(s.k - ks[0]) for s in poles) <= 1e-13 * abs(ks[0])


def test_free_profile_deep_count_needs_no_refinement_past_float64():
    """Two zero-height segments, 172 A in all, to 1.01 eV: m22 = exp(-ikL) has no zero, and the search says so.

    The full-matrix m22 was rounding noise on the deep edge, where
    |m22| = exp(Im k L) ~ 1e-10, and the search stopped at "contour
    refinement exhausted".
    """
    assert find_poles(build_profile([(73.2, 0.0), (98.8, 0.0)]), 1.01) == []


LONG_ZERO_SEGMENT = [(94.33, 0.0), (65.09, 0.3), (94.33, 0.3), (81.60, 0.0177)]
ZERO_WELL_ZERO_TAIL = [(49.10, 0.585), (8.0, 0.0), (49.10, 0.585), (92.92, 0.0)]


@pytest.mark.parametrize("segments, mass_factor, e_max, n_poles", [
    (LONG_ZERO_SEGMENT, 0.067, 2.4, 15),
    (LONG_ZERO_SEGMENT, 0.067, 19.2, 44),
    (ZERO_WELL_ZERO_TAIL, 0.067, 19.2, 19),
    ([(73.2, 0.0), (98.8, 0.0)], 0.067, 8.0, 0),
    ([(73.2, 0.0), (98.8, 0.0)], 0.067, 32.0, 0),
    ([(92.76, 0.0), (69.49, 0.5), (92.76, 0.0), (53.98, 0.0)], 0.5, 0.5, 0),
], ids=["long_zero_segment-2.4", "long_zero_segment-19.2", "zero_well_zero_tail-19.2", "free-8", "free-32",
        "zero_around_one_barrier-0.5"])
def test_wide_zero_height_segments_keep_the_deep_edge(segments, mass_factor, e_max, n_poles):
    """Profiles with wide zero-height or low segments list every pole, each a zero of a 100-digit m22.

    A (psi, psi') march cancels by about e^(2 |Im kappa| w) across such a
    segment, 7e16 over 94.33 A at Im k = -k(2.4 eV): its m22 was rounding
    noise or exactly 0 on the deep edge, and each of these searches raised
    "contour refinement exhausted".  The amplitude march has no such
    cancellation.  One Newton step on m22 in mpmath moves every pole by at
    most 1e-13 of |k|.
    """
    profile = build_profile(segments, mass_factor=mass_factor)
    poles = find_poles(profile, e_max)
    assert len(poles) == n_poles
    with mpmath.workdps(100):
        for state in poles:
            assert oracles.newton_step(profile, state.k, 1e-34, mpmath) <= 1e-13 * abs(state.k)


def test_newton_seed_that_wanders_where_m22_overflows_fails_quietly():
    """Moment seeds above the axis wander to Im k = -2.5, where |Im k| L > 709: they fail with no numpy warning.

    The other seeds find all 7 poles; the (psi, psi') march never got this
    far on this profile (its deep edge was rounding noise).
    """
    profile = build_profile(
        [(57.43, 0.5476), (40.8, 0.2472), (43.58, 0.5078), (60.89, 0.0), (83.51, 0.0), (9.83, 0.0)]
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert len(find_poles(profile, 1.818)) == 7


def test_contour_refinement_stops_at_steps_float64_cannot_bisect(monkeypatch):
    """An m22 of pure rounding noise is refused in a few rounds, once a wide step is 1e-13 of |k| short.

    The bisection used to spend its whole 30,720-point budget on such noise,
    over about 14,500 rounds.
    """
    draw = np.random.default_rng(3)
    sizes = []

    def noise(profile, k):
        sizes.append(np.size(k))
        return np.exp(2j * np.pi * draw.uniform(size=np.shape(k)))

    monkeypatch.setattr(resonances, "_m22", noise)
    with pytest.raises(resonances.WindingMismatchError, match="contour refinement exhausted"):
        find_poles(build_profile(WEAK_BARRIERS), 0.5)
    budget = 4 * resonances.MAX_REFINEMENTS * resonances.SAMPLES_PER_EDGE
    assert len(sizes) < 100 and 2 * sum(sizes[1:]) < budget


def test_contour_refinement_stops_when_its_budget_is_spent(monkeypatch):
    """Noise on the cube roots of unity leaves two thirds of all steps wide: the bisection budget runs out first."""
    draw = np.random.default_rng(3)
    sizes = []

    def noise(profile, k):
        sizes.append(np.size(k))
        return np.exp(2j * np.pi / 3 * draw.integers(3, size=np.shape(k)))

    monkeypatch.setattr(resonances, "_m22", noise)
    with pytest.raises(resonances.WindingMismatchError, match="contour refinement exhausted"):
        find_poles(build_profile(WEAK_BARRIERS), 0.5)
    bisected = sum(sizes[1:])  # every call after the first samples midpoints
    assert bisected <= 4 * resonances.MAX_REFINEMENTS * resonances.SAMPLES_PER_EDGE < 2 * bisected


def test_zero_sample_on_the_contour_is_refused_without_a_warning(monkeypatch):
    """m22 exactly 0 at samples of the deep edge: refuse at once, with no numpy warning.

    The steps next to a zero sample used to divide by it, and the bisection
    spent its budget on them.
    """
    sizes = []

    def zero_on_the_deep_edge(profile, k):
        sizes.append(np.size(k))
        return np.where(k.imag == k.imag.min(), 0.0, 1.0 + 0j)

    monkeypatch.setattr(resonances, "_m22", zero_on_the_deep_edge)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(resonances.WindingMismatchError, match="zero on the contour"):
            find_poles(build_profile(LONG_ZERO_SEGMENT), 2.4)
    assert len(sizes) == 1  # the deep edge samples, no refinement round


@pytest.mark.parametrize("name", ["symmetric", "asymmetric"])
def test_batched_gamow_states_match_one_pole_at_a_time(name, request):
    """All poles normalized in one march equal gamow_state on each pole alone, and a scalar march.

    Against gamow_state every value agrees to 1e-13 of itself.  The scalar
    reference rounds differently, and an evanescent end segment magnifies
    that in the small u(L), so it is compared to 1e-13 of max |u|.
    """
    profile = request.getfixturevalue(f"{name}_profile")
    batch = find_poles(profile, 32.0)
    assert len(batch) == {"symmetric": 38, "asymmetric": 42}[name]
    length = profile.total_length
    xs = np.linspace(0.0, length, 11)
    for state in batch:
        alone = gamow_state(profile, state.k)
        assert alone.k == state.k and alone.energy_ev == state.energy_ev
        assert abs(state.u0 - alone.u0) <= 1e-13 * abs(alone.u0)
        assert abs(state.u(length) - alone.u(length)) <= 1e-13 * abs(alone.u(length))
        assert np.all(np.abs(state.u(xs) - alone.u(xs)) <= 1e-13 * np.abs(alone.u(xs)))
        u0, u_end, u = oracles.gamow(profile, state.k, xs, np)
        scale = np.max(np.abs(u))
        assert max(abs(state.u0 - u0), abs(state.u(length) - u_end), np.max(np.abs(state.u(xs) - u))) <= 1e-13 * scale


@pytest.mark.parametrize("name", ["symmetric", "asymmetric"])
def test_gamow_weights_are_residues_of_the_stationary_resolvent(name, request):
    """-i T_n is the residue at k_n of F(k') = 2k phi(x, k') / (k'^2 - k^2), to 1e-12 relative.

    This is the Mittag-Leffler form of the outgoing Green function
    (Garcia-Calderon & Rubio, Phys. Rev. A 55, 3361, 1997), with the weight
    T_n = 2k u_n(0) u_n(x) / (k^2 - k_n^2) of the pole sum.  phi is continued
    to complex k' by the reference march, so the check uses neither the
    package's waves nor the normalization rule of its Gamow functions.  The
    residue is a 64-point trapezoid on a circle around k_n, of half the
    distance to the nearest other singularity of F: another k_m, k or -k_n*.
    E = 0.2 eV and x = 60 A; at 80 A u_2 of the symmetric structure has a
    node, where a relative error means nothing.
    """
    profile = request.getfixturevalue(f"{name}_profile")
    poles = request.getfixturevalue(f"{name}_poles")
    assert len(poles) == {"symmetric": 3, "asymmetric": 1}[name]
    k, x = profile.constants.wavevector(0.2), 60.0
    turns = np.exp(2j * np.pi * np.arange(64) / 64)
    for state in poles:
        t_n = 2.0 * k * state.u0 * state.u(x) / (k * k - state.k**2)
        others = [p.k for p in poles if p is not state] + [k, -state.k.conjugate()]
        radius = 0.5 * min(abs(state.k - q) for q in others)
        ks = state.k + radius * turns
        phi = oracles.scattering(profile, ks, [x], np)[2][0]
        residue = radius * np.mean(2.0 * k * phi / (ks * ks - k * k) * turns)
        assert abs(residue / (-1j * t_n) - 1.0) <= 1e-12, state.eps_ev


@pytest.mark.parametrize("e_max, n_poles", [(30.0, 41), (96.0, 74)])
def test_asymmetric_recovery_finds_every_counted_pole(asymmetric_profile, e_max, n_poles):
    """The recovery on the count's lifted samples, with Newton on the deflated m22, finds every pole.

    Without the deflation the seeds of the 30 eV search all fall back onto
    known poles; the on-axis recovery stopped at 67 of the 74 poles to 96 eV.
    Each pole is a zero of an m22 coded apart from the package (one Newton
    step moves it by at most 1e-12 of |k|), and the count on the on-axis
    rectangle agrees with the number found.
    """
    poles = find_poles(asymmetric_profile, e_max)
    assert len(poles) == n_poles
    for state in poles:
        assert oracles.newton_step(asymmetric_profile, state.k, 1e-6 * abs(state.k), np) <= 1e-12 * abs(state.k)
    assert winding_number(asymmetric_profile, *search_rectangle(asymmetric_profile, e_max)) == n_poles
