import cmath
import dataclasses

import numpy as np
import pytest

import rtbuildup.resonances as resonances
import rtbuildup.scattering as scattering
from rtbuildup import (
    BoundStateError,
    GamowResidualError,
    build_profile,
    find_poles,
    gamow_state,
    one_term_phi,
    refine_pole,
    stationary_state,
    transmission_scan,
    winding_number,
)
from rtbuildup.scattering import _transfer_entries

def m22(profile, k):
    """m22(k), whose fourth-quadrant zeros are the resonance poles."""
    return complex(_transfer_entries(profile, complex(k))[3])


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
    surface = 1j * (state.u0**2 + state.u_end**2) / (2.0 * state.k)
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
    eps = 1e-7
    for s in symmetric_poles:
        du0 = s.u_derivative(eps)
        assert abs(du0 + 1j * s.k * s.u0) / (abs(s.k) * abs(s.u0)) < 1e-6
        length = s.profile.total_length
        dul = s.u_derivative(length - eps)
        assert abs(dul - 1j * s.k * s.u_end) / (abs(s.k) * abs(s.u_end)) < 1e-6


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
    calls = []
    entries = resonances._transfer_entries

    def counting(profile, k):
        calls.append(1)
        return entries(profile, k)

    monkeypatch.setattr(resonances, "_transfer_entries", counting)
    on_axis = winding_number(profile, (k_lo, k_hi), (im_lo, 0.0))
    n_on_axis = len(calls)
    lifted = winding_number(profile, (k_lo, k_hi), (im_lo, (k_hi - k_lo) / resonances.SAMPLES_PER_EDGE))
    assert lifted == on_axis > 0
    assert len(calls) - n_on_axis <= n_on_axis


def recording_newton_batches(monkeypatch, steps=None):
    """Record (seeds, known poles, contour passes so far) of every Newton batch of the pole search."""
    batches = []
    newton = resonances._newton

    def recording(profile, seeds, known=()):
        batches.append((len(seeds), len(known), None if steps is None else len(steps)))
        return newton(profile, seeds, known=known)

    monkeypatch.setattr(resonances, "_newton", recording)
    return batches


@pytest.mark.parametrize("name, n_poles, n_missing", [("symmetric", 26, 2), ("asymmetric", 30, 4)])
def test_moment_recovery_of_several_missing_poles(
    name, n_poles, n_missing, symmetric_profile, asymmetric_profile, monkeypatch
):
    """Up to 16 eV the seed scan misses several broad poles at once; one moment pass finds them all."""
    profile = {"symmetric": symmetric_profile, "asymmetric": asymmetric_profile}[name]
    batches = recording_newton_batches(monkeypatch)
    poles = find_poles(profile, 16.0)
    # the peak pass with nothing known, then one moment pass: one seed per missing pole
    assert len(batches) == 2 and batches[0][1] == 0
    assert batches[1][:2] == (n_missing, n_poles - n_missing)
    assert len(poles) == n_poles
    assert winding_number(profile, *search_rectangle(profile, 16.0)) == len(poles)
    ks = [s.k for s in poles]
    assert min(abs(a - b) for i, a in enumerate(ks) for b in ks[i + 1:]) > 1e-6
    eps = [s.eps_ev for s in poles]
    assert eps == sorted(eps) and eps[-1] <= 16.0


@pytest.mark.parametrize("name, n_poles", [("symmetric", 9), ("asymmetric", 10)])
def test_search_with_no_peak_seeds_finds_every_pole_from_moments(name, n_poles, request, monkeypatch):
    """A first pass with no seeds does not end the search: the moments find the same poles."""
    profile = request.getfixturevalue(f"{name}_profile")
    want = find_poles(profile, 2.0)
    scan = resonances.transmission_scan
    monkeypatch.setattr(resonances, "transmission_scan", lambda *args: dataclasses.replace(scan(*args), peaks=()))
    batches = recording_newton_batches(monkeypatch)
    got = find_poles(profile, 2.0)
    assert batches[0][0] == 0 and len(batches) > 1
    assert len(got) == len(want) == n_poles
    for g, w in zip(got, want):
        assert abs(g.k - w.k) <= 1e-12 * abs(w.k)


def test_pole_search_transfer_matrix_budget(symmetric_profile, monkeypatch):
    """find_poles(symmetric, 2 eV) recovers poles without a peak in <= 2000 transfer-matrix calls."""
    calls = []
    entries = scattering._transfer_entries

    def counting(*args, **kwargs):
        calls.append(1)
        return entries(*args, **kwargs)

    monkeypatch.setattr(scattering, "_transfer_entries", counting)
    monkeypatch.setattr(resonances, "_transfer_entries", counting)
    poles = find_poles(symmetric_profile, 2.0)
    assert len(poles) == 9
    assert 0 < len(calls) <= 2000


def test_pole_search_call_budget_with_batched_scan(symmetric_profile, monkeypatch):
    """find_poles(symmetric, 2 eV): a lockstep seed scan and one call per Newton step keep it <= 300."""
    calls = []
    entries = scattering._transfer_entries

    def counting(*args, **kwargs):
        calls.append(1)
        return entries(*args, **kwargs)

    monkeypatch.setattr(scattering, "_transfer_entries", counting)
    monkeypatch.setattr(resonances, "_transfer_entries", counting)
    assert len(find_poles(symmetric_profile, 2.0)) == 9
    assert 0 < len(calls) <= 300


def test_pole_search_call_budget_with_lockstep_newton(symmetric_profile, monkeypatch):
    """find_poles(symmetric, 2 eV): one grid call, one call per Newton round, contours; <= 40 in all."""
    calls = []
    entries = scattering._transfer_entries

    def counting(*args, **kwargs):
        calls.append(1)
        return entries(*args, **kwargs)

    monkeypatch.setattr(scattering, "_transfer_entries", counting)
    monkeypatch.setattr(resonances, "_transfer_entries", counting)
    assert len(find_poles(symmetric_profile, 2.0)) == 9
    assert 0 < len(calls) <= 40


def test_lockstep_newton_matches_one_seed_at_a_time(symmetric_profile, symmetric_poles_8ev, monkeypatch):
    """The 18 scan seeds to 8 eV refined together land where refine_pole takes each alone."""
    c2 = symmetric_profile.constants.hbar2_over_2m
    peaks = transmission_scan(symmetric_profile, 1e-3, 8.0).peaks
    seeds = [cmath.sqrt((p.energy_ev - 0.5j * p.gamma_estimate_ev) / c2) for p in peaks]
    assert len(seeds) == 18

    calls = []
    entries = resonances._transfer_entries

    def counting(profile, k):
        calls.append(np.size(k) // 3)
        return entries(profile, k)

    monkeypatch.setattr(resonances, "_transfer_entries", counting)
    ks, converged = resonances._newton(symmetric_profile, seeds)
    rounds = len(calls)
    assert converged.all() and calls[0] == 18
    single_rounds = []
    for seed, k in zip(seeds, ks):
        calls.clear()
        assert abs(refine_pole(symmetric_profile, seed) - k) <= 1e-13 * abs(k)
        single_rounds.append(len(calls))
    assert rounds == max(single_rounds)  # one call per round for all seeds
    poles = [s.k for s in symmetric_poles_8ev]
    assert all(min(abs(k - p) for p in poles) <= 1e-13 * abs(k) for k in ks)


def test_dropped_seed_is_recovered_from_contour_moments(symmetric_profile, symmetric_poles, monkeypatch):
    """A peak whose seed never reaches Newton leaves a winding deficit that one moment pass fills."""
    newton = resonances._newton
    seed_batches = []

    def dropping(profile, seeds, known=()):
        seeds = list(seeds)
        if not seed_batches:  # find_poles' peak seeds: lose the second
            del seeds[1]
        seed_batches.append((len(seeds), len(known)))
        return newton(profile, seeds, known=known)

    monkeypatch.setattr(resonances, "_newton", dropping)
    poles = find_poles(symmetric_profile, 0.4)
    assert seed_batches == [(2, 0), (1, 2)]  # the moment pass seeds the one missing pole
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


def counting_transfer_sizes(monkeypatch):
    """Record the number of momenta of every transfer-matrix call the pole search makes."""
    sizes = []
    entries = resonances._transfer_entries

    def counting(profile, k):
        sizes.append(np.size(k))
        return entries(profile, k)

    monkeypatch.setattr(resonances, "_transfer_entries", counting)
    return sizes


@pytest.mark.parametrize("name, n_poles", [("symmetric", 26), ("asymmetric", 30)])
def test_one_contour_per_search(name, n_poles, request, monkeypatch):
    """m22 is sampled around the rectangle once; recovery bisects the count's samples, never resamples them.

    With a separate contour for the count, each recovery pass and a
    confirming pass, these searches sampled the rectangle three and four times.
    """
    profile = request.getfixturevalue(f"{name}_profile")
    sizes = counting_transfer_sizes(monkeypatch)
    assert len(find_poles(profile, 16.0)) == n_poles
    assert sum(1 for n in sizes if n >= 4 * resonances.SAMPLES_PER_EDGE) == 1


def test_recovery_that_finds_the_whole_deficit_runs_no_confirming_pass(symmetric_profile, monkeypatch):
    """Newton returning exactly the missing poles ends the search: one contour pass for it, one for the count."""
    steps = resonances._contour_steps
    passes = []

    def counting_steps(*args, **kwargs):
        passes.append(1)
        return steps(*args, **kwargs)

    monkeypatch.setattr(resonances, "_contour_steps", counting_steps)
    batches = recording_newton_batches(monkeypatch, passes)
    poles = find_poles(symmetric_profile, 16.0)
    assert len(poles) == 26
    # (seeds, known, contour passes before it): the moment pass recovers the last 26 - 24 = 2 poles
    assert len(batches) == 2 and batches[0][1:] == (0, 1) and batches[1] == (2, 24, 2)
    assert len(passes) == 2  # the count and the moment pass; no confirming pass


def scalar_gamow(profile, k, xs):
    """Reference: (u0, u_end, u(xs)) of the normalized Gamow function, one pole and one segment at a time."""
    c2 = profile.constants.hbar2_over_2m
    pairs, kappas = [(1.0 + 0j, -1j * k)], []
    for width, height in profile.segments:
        q = cmath.sqrt(k * k - height / c2)
        u, du = pairs[-1]
        pairs.append((cmath.cos(q * width) * u + cmath.sin(q * width) / q * du,
                      -q * cmath.sin(q * width) * u + cmath.cos(q * width) * du))
        kappas.append(q)
    norm = 1j * (1.0 + pairs[-1][0] ** 2) / (2.0 * k)
    for (u, du), q, (width, _) in zip(pairs, kappas, profile.segments):
        a, b = 0.5 * (u + du / (1j * q)), 0.5 * (u - du / (1j * q))
        norm += (a * a * (cmath.exp(2j * q * width) - 1.0) - b * b * (cmath.exp(-2j * q * width) - 1.0)) / (2j * q)
        norm += 2.0 * a * b * width
    scale = 1.0 / cmath.sqrt(norm)
    values = []
    for x in xs:
        j = min(int(np.searchsorted(profile.boundaries, x, side="right")) - 1, len(kappas) - 1)
        s, q, (u, du) = x - profile.boundaries[j], kappas[j], pairs[j]
        values.append(scale * (cmath.cos(q * s) * u + cmath.sin(q * s) / q * du))
    return scale, scale * pairs[-1][0], np.array(values)


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
    xs = np.linspace(0.0, profile.total_length, 11)
    for state in batch:
        alone = gamow_state(profile, state.k)
        assert alone.k == state.k and alone.energy_ev == state.energy_ev
        assert abs(state.u0 - alone.u0) <= 1e-13 * abs(alone.u0)
        assert abs(state.u_end - alone.u_end) <= 1e-13 * abs(alone.u_end)
        assert np.all(np.abs(state.u(xs) - alone.u(xs)) <= 1e-13 * np.abs(alone.u(xs)))
        u0, u_end, u = scalar_gamow(profile, state.k, xs)
        scale = np.max(np.abs(u))
        assert max(abs(state.u0 - u0), abs(state.u_end - u_end), np.max(np.abs(state.u(xs) - u))) <= 1e-13 * scale


def independent_m22(profile, k):
    """m22(k) from scalar cmath propagators, coded apart from rtbuildup.scattering."""
    c2 = profile.constants.hbar2_over_2m
    a, b, c, d = 1.0 + 0j, 0j, 0j, 1.0 + 0j  # (psi, psi') matrix [[a, b], [c, d]]
    for width, height in profile.segments:
        q = cmath.sqrt(k * k - height / c2)
        cs, sn = cmath.cos(q * width), cmath.sin(q * width)
        a, b, c, d = cs * a + sn / q * c, cs * b + sn / q * d, -q * sn * a + cs * c, -q * sn * b + cs * d
    return 0.5 * (a + d - 1j * k * b - c / (1j * k))


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
        k = state.k
        h = 1e-6 * abs(k)
        slope = (independent_m22(asymmetric_profile, k + h) - independent_m22(asymmetric_profile, k - h)) / (2 * h)
        assert abs(independent_m22(asymmetric_profile, k) / slope) <= 1e-12 * abs(k)
    assert winding_number(asymmetric_profile, *search_rectangle(asymmetric_profile, e_max)) == n_poles
