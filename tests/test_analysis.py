import dataclasses
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import brentq

from rtbuildup import analysis, scattering
from rtbuildup import (
    BuildupSeries,
    FitWindowError,
    NodePositionError,
    NoOnsetError,
    OnsetReport,
    delta_curve,
    detect_onset,
    evolve_single_resonance,
    exponential_law,
    fit_envelope_exponent,
    fit_time_constant,
    local_slopes,
    normalize_buildup,
)


def synthetic_series(tau, ratio):
    return BuildupSeries(np.asarray(tau, dtype=float), np.asarray(ratio, dtype=float))


def pure_law_series(tau_max=40.0, n_points=8000):
    tau = np.linspace(0.01, tau_max, n_points)
    return synthetic_series(tau, exponential_law(tau))


# ------------------------------------------------------------ exponential_law

def test_law_trivial_values():
    assert exponential_law(0.0) == 0.0
    assert exponential_law(2.0) == pytest.approx(1.0 - np.exp(-1.0))
    assert exponential_law(2.0) == pytest.approx(0.6321206, abs=1e-7)
    assert exponential_law(1e4) == pytest.approx(1.0)


def test_law_rejects_negative():
    with pytest.raises(ValueError):
        exponential_law(-0.1)


def test_law_vectorized():
    tau = np.asarray([0.0, 2.0, 4.0])
    np.testing.assert_allclose(exponential_law(tau), 1.0 - np.exp(-0.5 * tau))


# ---------------------------------------------------------- normalize_buildup

def test_normalize_buildup_conversion(symmetric_profile, symmetric_poles):
    st = symmetric_poles[0]
    sol = evolve_single_resonance(
        symmetric_profile, st, st.eps_ev, 80.0, t_fs=[st.lifetime_fs, 2.0 * st.lifetime_fs]
    )
    series = normalize_buildup(sol, st)
    assert series.tau[0] == 1.0  # t = hbar/Gamma_1 is exactly one lifetime
    assert np.all(series.ratio_abs2 >= 0.0)
    assert np.all(series.delta >= 0.0)


def test_buildup_series_derives_its_square_and_delta(symmetric_profile, symmetric_poles):
    """|Psi/phi|^2 and delta come from ratio_abs, bit for bit as they were once stored."""
    st = symmetric_poles[0]
    tau = np.linspace(0.05, 60.0, 3001)
    sol = evolve_single_resonance(symmetric_profile, st, st.eps_ev, 80.0, t_fs=tau * st.lifetime_fs)
    ratio = np.abs(sol.psi / sol.phi)
    series = BuildupSeries(tau, ratio)
    assert np.array_equal(series.ratio_abs2, ratio**2)
    assert np.array_equal(series.delta, np.abs(1.0 - ratio))
    assert np.array_equal(normalize_buildup(sol, st).delta, series.delta)


def test_buildup_series_takes_no_derived_value():
    tau = np.linspace(0.5, 2.0, 4)
    ratio = exponential_law(tau)
    with pytest.raises(TypeError):
        BuildupSeries(tau=tau, ratio_abs=ratio, ratio_abs2=ratio**2, delta=np.abs(1.0 - ratio))


def test_normalize_buildup_rejects_node_position(symmetric_profile, symmetric_poles):
    st = symmetric_poles[0]
    sol = evolve_single_resonance(symmetric_profile, st, st.eps_ev, 80.0, t_fs=np.array([1.0]) * st.lifetime_fs)
    with pytest.raises(NodePositionError):
        normalize_buildup(dataclasses.replace(sol, phi=1e-13 + 0j), st)


def test_normalize_buildup_takes_phi_from_the_solution(symmetric_profile, symmetric_poles, monkeypatch):
    """No second stationary solve: phi is the value the evolution already holds."""
    st = symmetric_poles[0]
    sol = evolve_single_resonance(symmetric_profile, st, st.eps_ev, 80.0, t_fs=np.array([1.0, 2.0]) * st.lifetime_fs)

    def no_solve(*args, **kwargs):
        raise AssertionError("stationary problem solved again")

    monkeypatch.setattr(analysis, "stationary_wave", no_solve)
    monkeypatch.setattr(scattering, "stationary_state", no_solve)
    series = normalize_buildup(sol, st)
    assert np.array_equal(series.ratio_abs, np.abs(sol.psi / sol.phi))


def test_normalize_buildup_collapses_to_law(reference_configs):
    tau = np.linspace(0.5, 8.0, 1500)
    law = exponential_law(tau)
    for label, profile, state, x in reference_configs:
        sol = evolve_single_resonance(profile, state, state.eps_ev, x, t_fs=tau * state.lifetime_fs)
        series = normalize_buildup(sol, state)
        assert np.max(np.abs(series.ratio_abs - law)) < 1e-2, label


# ---------------------------------------------------------- fit_time_constant

def test_fit_on_pure_law_is_exact():
    report = fit_time_constant(pure_law_series())
    assert report.tau0 == pytest.approx(2.0, abs=1e-10)
    assert report.fit_slope == pytest.approx(-0.5, abs=1e-10)
    assert report.fit_residual < 1e-10


def test_tau0_is_minus_one_over_the_fit_slope():
    slope = float(np.polyfit([0.5, 1.0, 6.0], [0.1, -0.15, -2.7], 1)[0])
    report = OnsetReport((0.5, 6.0), slope, 0.01)
    assert report.tau0 == -1.0 / slope
    with pytest.raises(TypeError):
        OnsetReport(tau0=2.0, fit_window=(0.5, 6.0), fit_slope=-0.5, fit_residual=0.0)


def test_fit_rejects_uncovered_window():
    tau = np.linspace(1.0, 4.0, 100)  # does not reach tau = 6
    with pytest.raises(FitWindowError):
        fit_time_constant(synthetic_series(tau, exponential_law(tau)))


def test_fit_rejects_nonlinear_window():
    tau = np.linspace(0.01, 10.0, 2000)
    ratio = exponential_law(tau) - 0.3 * np.exp(-((tau - 3.0) ** 2))  # bump inside window
    with pytest.raises(FitWindowError):
        fit_time_constant(synthetic_series(tau, ratio))


def test_fit_time_constant_on_real_configs(reference_configs):
    tau = np.linspace(0.05, 8.0, 4000)
    for label, profile, state, x in reference_configs:
        sol = evolve_single_resonance(profile, state, state.eps_ev, x, t_fs=tau * state.lifetime_fs)
        report = fit_time_constant(normalize_buildup(sol, state))
        assert report.tau0 == pytest.approx(2.0, abs=0.05), label
        assert report.fit_window == (0.5, 6.0)


# --------------------------------------------------------------- delta_curve

def test_delta_curve_pure_exponential_slope():
    tau, ln_delta, dropped = delta_curve(pure_law_series())
    assert dropped == 0
    slope = np.polyfit(tau, ln_delta, 1)[0]
    # 1 - ratio rounds at ~1e-16 absolute, which bounds the slope accuracy
    assert slope == pytest.approx(-0.5, abs=1e-9)


def test_delta_curve_drops_exact_zeros():
    tau = np.linspace(0.1, 5.0, 50)
    ratio = exponential_law(tau)
    ratio[7] = 1.0  # delta exactly zero there
    t, ln_d, dropped = delta_curve(synthetic_series(tau, ratio))
    assert dropped == 1
    assert len(t) == 49
    assert np.all(np.isfinite(ln_d))


# -------------------------------------------------------------- local_slopes

def polyfit_slopes(tau, values, window=0.5):
    """Reference: one np.polyfit per point over the +-window/2 neighbourhood."""
    slopes = np.full(tau.shape, np.nan)
    lo = np.searchsorted(tau, tau - 0.5 * window, side="left")
    hi = np.searchsorted(tau, tau + 0.5 * window, side="right")
    for i in range(tau.size):
        if hi[i] - lo[i] >= 3:
            slopes[i] = np.polyfit(tau[lo[i]:hi[i]], values[lo[i]:hi[i]], 1)[0]
    return slopes


def assert_slopes_match(got, want):
    assert got.shape == want.shape
    np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
    ok = ~np.isnan(want)
    assert np.all(np.abs(got[ok] - want[ok]) <= 1e-9 * np.maximum(1.0, np.abs(want[ok])))


def crossover_like(tau):
    """ln delta-like series: slope -1/2, then a fast tau^{-1/2} oscillation."""
    return np.log(np.abs(np.exp(-0.5 * tau) + 0.02 * np.cos(300.0 * tau) / np.sqrt(300.0 * tau)))


def dropped_grid():
    rng = np.random.default_rng(7)
    tau = np.linspace(0.25, 30.0, 12001)
    return tau[rng.random(tau.size) > 0.3]


@pytest.mark.parametrize("tau", [
    np.linspace(0.25, 60.0, 24001),
    np.geomspace(0.25, 60.0, 8001),
    dropped_grid(),
    1e3 + np.linspace(0.25, 60.0, 24001),
], ids=["linear", "log", "dropped", "offset-1e3"])
def test_local_slopes_match_polyfit(tau):
    values = crossover_like(tau - tau[0] + 0.25)
    assert_slopes_match(local_slopes(tau, values), polyfit_slopes(tau, values))


@pytest.mark.parametrize("offset", [0.0, 1e3])
def test_local_slopes_exact_line(offset):
    tau = offset + np.linspace(0.25, 60.0, 24001)
    for slope in (-0.5, 3.0):
        got = local_slopes(tau, slope * tau + 1.7)
        assert np.max(np.abs(got - slope)) <= 1e-12


def test_local_slopes_nan_where_window_has_fewer_than_three_points():
    # sparse head (spacing 0.3: one point per window), dense tail
    tau = np.concatenate([np.arange(0.0, 3.0, 0.3), np.linspace(3.2, 6.0, 400)])
    values = crossover_like(tau + 0.25)
    got = local_slopes(tau, values)
    counts = (np.searchsorted(tau, tau + 0.25, side="right")
              - np.searchsorted(tau, tau - 0.25, side="left"))
    assert np.any(counts < 3) and np.any(counts >= 3)
    np.testing.assert_array_equal(np.isnan(got), counts < 3)
    assert_slopes_match(got, polyfit_slopes(tau, values))


@pytest.mark.parametrize("n", [0, 1])
def test_local_slopes_degenerate_inputs(n):
    tau = np.linspace(1.0, 2.0, n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = local_slopes(tau, tau.copy())
    assert got.shape == tau.shape
    assert np.all(np.isnan(got))


def exact_slope(tau, values):
    """Reference: least-squares slope in exact rational arithmetic.

    Every double is an integer over a power of two, so each array becomes
    integers over one common denominator and the sums are exact integers.
    """
    def integers(x):
        ratios = [v.as_integer_ratio() for v in x.tolist()]
        den = max(d for _, d in ratios)
        return [p * (den // d) for p, d in ratios], den

    (t, t_den), (v, v_den) = integers(tau), integers(values)
    n, s_t, s_v = len(t), sum(t), sum(v)
    s_tt, s_tv = sum(x * x for x in t), sum(x * y for x, y in zip(t, v))
    return Fraction(n * s_tv - s_t * s_v, n * s_tt - s_t * s_t) * Fraction(t_den, v_den)


@pytest.mark.parametrize("tau", [
    np.linspace(0.25, 60.0, 24001),
    np.geomspace(0.25, 60.0, 8001),
    np.geomspace(0.25, 60.0, 24001),
    dropped_grid(),
    1e3 + np.linspace(0.25, 60.0, 24001),
    np.linspace(0.25, 30.0, 5 * analysis._SLOPE_BLOCK + 77),
], ids=["linear", "log", "log-24001", "dropped", "offset-1e3", "ragged"])
def test_local_slopes_match_exact_least_squares(tau):
    """Plain span-local sums against exact rationals, at every block's first and last window.

    A block starting at output a takes max(_SLOPE_BLOCK, 2 w) outputs, w the
    point count of window a; the log grids' head windows hold thousands of points.
    """
    values = crossover_like(tau - tau[0] + 0.25)
    got = local_slopes(tau, values)
    lo = np.searchsorted(tau, tau - 0.25, side="left")
    hi = np.searchsorted(tau, tau + 0.25, side="right")
    starts = [0]
    while starts[-1] < tau.size:
        a = starts[-1]
        starts.append(a + max(analysis._SLOPE_BLOCK, 2 * int(hi[a] - lo[a])))
    starts = np.array(starts)
    edges = np.concatenate([starts[:-1], np.minimum(starts[1:], tau.size) - 1])
    picks = np.concatenate([edges, np.random.default_rng(19).integers(0, tau.size, 30)])
    for i in picks:
        want = exact_slope(tau[lo[i]:hi[i]], values[lo[i]:hi[i]])
        assert abs(Fraction(got[i]) - want) <= 1e-11 * max(1, abs(want)), i
    # every sum and product scales exactly by 2, blocks or no blocks
    np.testing.assert_array_equal(local_slopes(tau, 2.0 * values)[edges], 2.0 * got[edges])


def test_local_slopes_memory_and_sparse_blocks():
    tau = np.linspace(0.25, 60.0, 24001)
    values = crossover_like(tau)
    tracemalloc.start()
    try:
        local_slopes(tau, values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the output and the two index arrays take 0.58 MB of it
    assert peak <= 1_000_000
    # a sparse head (one or two points a window) that fills whole blocks
    head = np.arange(3 * analysis._SLOPE_BLOCK) * 0.3
    tau = np.concatenate([head, head[-1] + np.linspace(0.2, 6.0, 2000)])
    values = crossover_like(tau + 0.25)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = local_slopes(tau, values)
    counts = (np.searchsorted(tau, tau + 0.25, side="right")
              - np.searchsorted(tau, tau - 0.25, side="left"))
    assert np.all(counts[:2 * analysis._SLOPE_BLOCK] < 3)
    np.testing.assert_array_equal(np.isnan(got), counts < 3)


def test_local_slopes_reuse_only_the_delta_curve_they_are_given():
    """Over the read-only arrays ``delta_curve`` returns, as over any others, the slopes are the arrays' own."""
    tau = np.linspace(0.3, 30.0, 6001)
    series = synthetic_series(tau, 1.0 - np.exp(crossover_like(tau)))
    tau_d, ln_delta, _ = delta_curve(series)
    assert not (tau_d.flags.writeable or ln_delta.flags.writeable)
    own = local_slopes(tau_d, ln_delta)
    assert_slopes_match(own, polyfit_slopes(tau_d, ln_delta))
    # scaling by 2 is exact through every sum and product
    np.testing.assert_array_equal(local_slopes(tau_d, 2.0 * ln_delta), 2.0 * own)
    np.testing.assert_array_equal(local_slopes(tau_d.copy(), ln_delta.copy()), own)


def test_window_slopes_do_not_call_polyfit(monkeypatch):
    import rtbuildup.analysis as analysis_module

    def no_polyfit(*args, **kwargs):
        raise AssertionError("np.polyfit called")

    monkeypatch.setattr(analysis_module.np, "polyfit", no_polyfit)
    tau = np.linspace(0.25, 60.0, 120001)
    assert np.all(np.isfinite(local_slopes(tau, crossover_like(tau))[1:-1]))
    # a pure exponential has no onset, so detect_onset stops after its
    # window slopes, before the charging-law fit (which does use polyfit)
    with pytest.raises(NoOnsetError):
        detect_onset(pure_law_series())


# -------------------------------------------------------------- detect_onset

def test_no_onset_on_pure_exponential():
    with pytest.raises(NoOnsetError):
        detect_onset(pure_law_series())


def test_onset_on_synthetic_crossover():
    """Exponential plus a tau^{-1/2} oscillation: onset where they balance."""
    r_ratio = 300.0
    amplitude = 0.02
    tau = np.linspace(0.3, 50.0, 120001)
    remainder = amplitude * np.cos(r_ratio * tau) / np.sqrt(r_ratio * tau)
    ratio = 1.0 - np.exp(-0.5 * tau) + remainder
    report = detect_onset(synthetic_series(tau, ratio))
    # independent oracle: solve exp(-tau/2) = amplitude / sqrt(R tau)
    balance = brentq(
        lambda t: np.exp(-0.5 * t) - amplitude / np.sqrt(r_ratio * t), 1.0, 40.0
    )
    assert report.tau_onset == pytest.approx(balance, abs=2.5)
    assert report.tau0 == pytest.approx(2.0, abs=0.05)
    # the remainder's envelope after the onset, fitted as criterion 5 fits it
    window = tau >= report.tau_onset + 4.0
    assert fit_envelope_exponent(tau[window], remainder[window]) == pytest.approx(-0.5, abs=0.1)


def sparse_head_grid():
    """Scattered points up to tau = 10, with empty windows and windows of 1-3 points, then dense."""
    rng = np.random.default_rng(11)
    head = np.sort(rng.uniform(0.3, 10.0, 40))
    return np.concatenate([[0.3], head, np.linspace(10.0, 50.0, 40001)])


def holed_grid():
    """Dense, less two windows after the crossover: the flagged windows around them are not one run."""
    tau = np.linspace(0.3, 50.0, 60001)
    return tau[~(((tau >= 15.5) & (tau < 16.0)) | ((tau >= 17.0) & (tau < 17.5)))]


def edge_grid():
    """A dense grid from 0.7 with every window edge on it, and the double below each.

    From start 0.7 the edges are 0.7 + j d, d = fl(1.2) - 0.7, each rounded,
    and a window guessed from (tau - 0.7) / d is one off, in either
    direction, for some of these points.
    """
    edges = np.arange(0.7, 50.0, 0.5)
    return np.unique(np.concatenate([np.linspace(0.7, 50.0, 20001), edges, np.nextafter(edges[1:], 0.0)]))


def crossover_ratio(tau):
    return 1.0 - np.exp(-0.5 * tau) + 0.02 * np.cos(300.0 * tau) / np.sqrt(300.0 * tau)


def masked_polyfit_windows(tau_d, ln_delta):
    """Check ``_onset_windows`` against np.polyfit over boolean masks between np.arange edges.

    Every listed window must hold a point, and every window that holds one
    must be listed.  Returns the empty windows before the last point, the
    listed counts, and the left edge of the first run of three flagged
    windows, which an empty window breaks (None if there is none).
    """
    # np.arange spaces its edges the same whatever its stop, which here lies past the last point
    edges = np.arange(max(0.5, tau_d[0]), tau_d[-1] + 1.0, 0.5)
    index, lefts, counts, slopes = analysis._onset_windows(tau_d, ln_delta)
    listed = {int(j): i for i, j in enumerate(index)}
    assert len(listed) == index.size and np.all(np.diff(index) > 0)
    run, reference, empty = 0, None, 0
    for j, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
        mask = (tau_d >= a) & (tau_d < b)
        if not mask.any():
            assert j not in listed
            empty += a < tau_d[-1]
            run = 0
            continue
        i = listed.pop(j)
        assert lefts[i] == a and counts[i] == np.count_nonzero(mask)
        if counts[i] < 3:
            assert np.isnan(slopes[i])
            run = 0
            continue
        want = np.polyfit(tau_d[mask] - a, ln_delta[mask], 1)[0]
        assert abs(slopes[i] - want) <= 1e-12 * max(1.0, abs(want))
        bad = counts[i] >= 4 and abs(want + 0.5) > 0.1
        run = run + 1 if bad else 0
        if run >= 3 and reference is None:
            reference = float(edges[j - 2])
    assert not listed
    return empty, counts, reference


@pytest.mark.parametrize("tau, empty, few", [
    (np.linspace(0.3, 50.0, 60001), False, False),
    (dropped_grid(), False, False),
    (sparse_head_grid(), True, True),
    (holed_grid(), True, False),
], ids=["dense", "dropped", "sparse-head", "holed"])
def test_onset_matches_masked_polyfit_windows(tau, empty, few):
    """Occupied windows match np.polyfit over boolean masks and flag the same onset; empty ones are not listed."""
    series = synthetic_series(tau, crossover_ratio(tau))
    n_empty, counts, reference = masked_polyfit_windows(*delta_curve(series)[:2])
    # the last point may sit alone on the last edge, so few-point windows are looked for before it
    assert (n_empty > 0) == empty and np.any(counts[:-1] < 4) == few
    assert reference is not None
    assert detect_onset(series).tau_onset == reference


def test_onset_windows_hold_the_points_on_their_edges():
    """A point on an edge opens its window, and the double below it closes the one before."""
    tau = edge_grid()
    series = synthetic_series(tau, crossover_ratio(tau))
    n_empty, _counts, reference = masked_polyfit_windows(*delta_curve(series)[:2])
    assert n_empty == 0 and reference is not None


def test_onset_ignores_sparse_points_far_past_the_crossover():
    """Points out to tau = 1e12 add one-point windows, not a window grid up to 1e12."""
    dense = np.linspace(0.3, 50.0, 60001)
    tau = np.concatenate([dense, np.geomspace(60.0, 1e12, 6)])
    far = synthetic_series(tau, crossover_ratio(tau))
    assert detect_onset(far) == detect_onset(synthetic_series(dense, crossover_ratio(dense)))
    index, _lefts, counts, _slopes = analysis._onset_windows(*delta_curve(far)[:2])
    assert index.size < tau.size and np.all(counts[-6:] == 1)


def test_detect_onset_does_not_depend_on_local_slopes_running_first():
    tau = np.linspace(0.3, 50.0, 60001)
    ratio = 1.0 - np.exp(-0.5 * tau) + 0.02 * np.cos(300.0 * tau) / np.sqrt(300.0 * tau)
    fresh, primed = synthetic_series(tau, ratio), synthetic_series(tau, ratio)
    local_slopes(*delta_curve(primed)[:2])
    assert detect_onset(primed) == detect_onset(fresh)


def test_onset_ordering_with_sharpness(symmetric_profile, symmetric_poles):
    """Sharper resonances stay exponential longer: onset grows with R_n."""
    onsets = {}
    for n in (1, 3):
        state = symmetric_poles[n - 1]
        tau = np.linspace(0.25, 60.0, 120001)
        sol = evolve_single_resonance(symmetric_profile, state, state.eps_ev, 80.0, t_fs=tau * state.lifetime_fs)
        report = detect_onset(normalize_buildup(sol, state))
        onsets[n] = report.tau_onset
        assert report.fit_slope == pytest.approx(-0.5, abs=0.02)
    assert onsets[1] > onsets[3]


def test_onset_balance_oracle_on_real_data(symmetric_profile, symmetric_poles):
    """detect_onset lands near the exp/remainder balance point."""
    state = symmetric_poles[0]
    tau = np.linspace(0.25, 60.0, 120001)
    sol = evolve_single_resonance(symmetric_profile, state, state.eps_ev, 80.0, t_fs=tau * state.lifetime_fs)
    series = normalize_buildup(sol, state)
    report = detect_onset(series)
    # calibrate the remainder amplitude on the far tail, where the
    # exponential is dead, then solve the transcendental balance
    tail = series.tau >= 45.0
    residual = np.abs(1.0 - series.ratio_abs[tail] - np.exp(-0.5 * series.tau[tail]))
    amplitude = np.max(residual) * np.sqrt(45.0)
    balance = brentq(lambda t: np.exp(-0.5 * t) - amplitude / np.sqrt(t), 5.0, 55.0)
    assert report.tau_onset == pytest.approx(balance, abs=4.0)


def test_detect_onset_too_short_series():
    tau = np.linspace(0.5, 2.0, 10)
    with pytest.raises(NoOnsetError):
        detect_onset(synthetic_series(tau, exponential_law(tau)))


# ------------------------------------------------------ fit_envelope_exponent

def test_envelope_exponent_on_synthetic_power_law():
    rng = np.random.default_rng(3)
    tau = np.linspace(5.0, 80.0, 40000)
    values = np.abs(np.cos(301.0 * tau)) * tau**-0.5
    assert fit_envelope_exponent(tau, values) == pytest.approx(-0.5, abs=0.02)
    values = np.abs(np.cos(87.0 * tau + rng.uniform())) * tau**-1.5
    assert fit_envelope_exponent(tau, values) == pytest.approx(-1.5, abs=0.05)


def test_envelope_exponent_needs_enough_samples():
    tau = np.linspace(5.0, 10.0, 50)
    with pytest.raises(FitWindowError):
        fit_envelope_exponent(tau, tau**-0.5)
