"""Tests of the names no computation calls, which stay in their modules only for the benchmark's tracer.

``transmission_scan`` with its ``ScanResult`` and ``PeakSeed``,
``_transfer_entries``, ``refine_pole``, ``winding_number`` and
``gamow_state`` are bound by ``perfbench/spans.BINDINGS``.  This is the
only test module besides ``test_api.py`` that names them, so it goes whole
when ROADMAP item 11 deletes them.
"""

import cmath
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from rtbuildup import build_profile, find_poles
from rtbuildup import resonances, scattering
from rtbuildup.cli import main
from rtbuildup.resonances import refine_pole, winding_number
from rtbuildup.scattering import _m22, _transfer_entries, transmission_scan
from test_api import refuse_tracer_only_functions
from test_scattering import DEEP_EDGE_PROFILES, marched_m22_points

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
TRACER_ONLY_FUNCTIONS = ("refine_pole", "winding_number", "gamow_state", "transmission_scan", "_transfer_entries")


@pytest.mark.parametrize("config", ["symmetric", "asymmetric"])
def test_cli_runs_call_no_tracer_only_function(config, tmp_path, monkeypatch):
    """With the five tracer-only functions raising in every module that holds them, every command exits 0.

    ``evolve --mode full``, ``buildup`` and ``crossover`` run on resonance 1
    at its auto-max position; ``test_find_poles_runs_no_transmission_scan``
    and ``test_asymmetric_search_to_2_ev_runs_no_seed_scan`` run the search
    and ``poles`` the same way.
    """
    assert refuse_tracer_only_functions(monkeypatch) == set(TRACER_ONLY_FUNCTIONS)
    profile, out = str(CONFIGS / f"{config}.cfg"), tmp_path / "out.csv"
    for command in (["evolve", "--mode", "full"], ["buildup"], ["crossover"]):
        assert main(command + ["--profile", profile, "--resonance", "1", "--auto-max", "--out", str(out)]) == 0


@pytest.mark.parametrize("name", ["symmetric", "asymmetric", *DEEP_EDGE_PROFILES])
def test_transfer_entries_m22_is_the_marched_m22(name, request):
    """The transfer matrix and m22 come from one march, so they are bit-identical.

    The momenta are those of ``test_scattering.py::test_marched_m22_matches_mpmath``.
    """
    profile, _dps, k = marched_m22_points(name, request)
    got = _m22(profile, k)
    assert np.array_equal(_transfer_entries(profile, k)[3], got)


def lifted_count(profile, e_max_ev):
    """The count ``find_poles`` certifies: on its search rectangle with the top edge lifted by one edge step."""
    k_lo, k_hi = 0.5 * profile.wavevector(resonances.SCAN_FLOOR_EV), profile.wavevector(e_max_ev) * (1.0 + 3e-9)
    return winding_number(profile, (k_lo, k_hi), (-k_hi, (k_hi - k_lo) / resonances.SAMPLES_PER_EDGE))


def peak_seeded_poles(profile, e_max_ev):
    """Reference: Newton from each transmission peak of the scan, one seed at a time."""
    c2 = profile.hbar2_over_2m
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


def test_transmission_scan_finds_three_resonances(symmetric_profile):
    scan = transmission_scan(symmetric_profile, 0.001, 0.4)
    peak_energies = sorted(1e3 * p.energy_ev for p in scan.peaks)
    # peaks sit near the resonance energies (a broad resonance skews its
    # transmission maximum by O(Gamma^2/eps) from the pole position)
    expected = [37.8, 149.2, 325.7]
    assert len(peak_energies) == 3
    for found, target in zip(peak_energies, expected):
        assert found == pytest.approx(target, abs=0.5)
    # symmetric structures transmit fully on resonance
    assert all(p.transmission > 0.999 for p in scan.peaks)


def test_transmission_scan_flat_for_free_profile():
    free = build_profile([(160.0, 0.0)])
    scan = transmission_scan(free, 0.001, 0.4)
    assert np.allclose(scan.transmission, 1.0, atol=1e-12)
    assert scan.peaks == ()


def test_transmission_scan_asymmetric_first_peak(asymmetric_profile):
    scan = transmission_scan(asymmetric_profile, 0.001, 0.3)
    assert scan.peaks
    first = min(p.energy_ev for p in scan.peaks)
    assert 1e3 * first == pytest.approx(89.09, abs=0.1)


def test_transmission_scan_rejects_bad_range(symmetric_profile):
    with pytest.raises(ValueError):
        transmission_scan(symmetric_profile, 0.0, 0.4)
    with pytest.raises(ValueError):
        transmission_scan(symmetric_profile, 0.4, 0.1)
    for e_min, e_max in ((1e-3, math.inf), (1e-3, math.nan), (math.nan, 0.4)):
        with pytest.raises(ValueError, match="need 0 < e_min < e_max < inf"):
            transmission_scan(symmetric_profile, e_min, e_max)  # inf used to overflow the grid size


def scalar_refined_peaks(profile, scan):
    """Reference: scipy's golden-section maximum of |t|^2 in each grid peak's bracket.

    Returns (energy, transmission) per peak and the grid index of each.
    """
    from scipy.optimize import minimize_scalar

    energies, t2 = scan.energies_ev, scan.transmission

    def t2_at(e):
        return 1.0 / abs(complex(_m22(profile, complex(profile.wavevector(e))))) ** 2

    interior = np.flatnonzero((t2[1:-1] > t2[:-2]) & (t2[1:-1] > t2[2:])) + 1
    interior = np.asarray([i for i in interior if t2[i] - min(t2[i - 1], t2[i + 1]) > 1e-9 * t2[i]])
    peaks = []
    for i in interior:
        res = minimize_scalar(
            lambda e: -t2_at(e),
            bracket=(energies[i - 1], energies[i], energies[i + 1]),
            method="golden",
            options={"xtol": 1e-13},
        )
        peaks.append((float(res.x), float(-res.fun)))
    return np.asarray(peaks), interior


TRIPLE_BARRIER = [(20.0, 0.4), (60.0, 0.0), (20.0, 0.4), (60.0, 0.0), (20.0, 0.4)]


@pytest.mark.parametrize("case, e_max", [
    ("symmetric", 2.0),
    ("asymmetric", 2.0),
    ("triple", 1.0),
    ("symmetric", 0.33),  # the third peak sits 13 grid points below e_max
])
def test_scan_vertex_matches_golden_section_maximum(request, case, e_max):
    """Each peak is the parabola vertex inside its grid bracket, close to the golden-section maximum."""
    profile = build_profile(TRIPLE_BARRIER) if case == "triple" else request.getfixturevalue(f"{case}_profile")
    scan = transmission_scan(profile, 1e-3, e_max)
    reference, interior = scalar_refined_peaks(profile, scan)
    vertex = np.asarray([(p.energy_ev, p.transmission) for p in scan.peaks])
    assert vertex.shape == reference.shape and len(vertex) >= 3
    energies = scan.energies_ev
    assert np.all((energies[interior - 1] < vertex[:, 0]) & (vertex[:, 0] < energies[interior + 1]))
    np.testing.assert_allclose(vertex[:, 0], reference[:, 0], rtol=3e-4, atol=0.0)
    np.testing.assert_allclose(vertex[:, 1], reference[:, 1], rtol=1e-3, atol=0.0)
    # the width estimate is the grid scale at the peak, a seed offset only
    widths = np.asarray([p.gamma_estimate_ev for p in scan.peaks])
    assert np.array_equal(widths, energies[interior + 1] - energies[interior - 1])


@pytest.mark.parametrize("e_max, n_peaks", [(0.4, 3), (8.0, 18)])
def test_transmission_scan_call_budget_does_not_grow_with_peaks(symmetric_profile, monkeypatch, e_max, n_peaks):
    """One m22 call over the grid is the only evaluation: every peak is a closed-form parabola vertex."""
    calls = []
    m22 = scattering._m22

    def counting(*args, **kwargs):
        calls.append(1)
        return m22(*args, **kwargs)

    monkeypatch.setattr(scattering, "_m22", counting)
    scan = transmission_scan(symmetric_profile, 1e-3, e_max)
    assert len(scan.peaks) == n_peaks
    assert len(calls) == 1


def test_transmission_scan_ending_on_a_barrier_height(symmetric_profile):
    """The log grid to 0.5 eV ends exactly on the barrier height, where kappa = 0 is marched at its floor."""
    c2 = symmetric_profile.hbar2_over_2m
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scan = transmission_scan(symmetric_profile, 1e-3, 0.5)
    assert scan.energies_ev[-1] == 0.5 and np.sqrt(0.5 / c2) ** 2 == 0.5 / c2
    assert np.isfinite(scan.transmission[-1]) and 0.0 < scan.transmission[-1] < 1.0


def test_transmission_scan_does_not_call_minimize_scalar(symmetric_profile, monkeypatch):
    import scipy.optimize

    def no_minimize_scalar(*args, **kwargs):
        raise AssertionError("minimize_scalar called")

    monkeypatch.setattr(scipy.optimize, "minimize_scalar", no_minimize_scalar)
    monkeypatch.setattr(scattering, "minimize_scalar", no_minimize_scalar, raising=False)
    assert len(transmission_scan(symmetric_profile, 1e-3, 2.0).peaks) >= 3
