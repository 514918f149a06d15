import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rtbuildup import PhysicalConstants, ProfileError, build_profile, stationary_state
from rtbuildup.scattering import _KAPPA_W_FLOOR


def test_total_length_symmetric():
    p = build_profile([(30, 0.5), (100, 0.0), (30, 0.5)], mass_factor=0.067)
    assert p.total_length == 160.0


def test_total_length_asymmetric():
    p = build_profile([(30, 0.3), (50, 0.0), (100, 0.3)], mass_factor=0.067)
    assert p.total_length == 180.0


def test_single_well_segment():
    p = build_profile([(10, -0.1)])
    assert p.total_length == 10.0
    assert p.heights.tolist() == [-0.1]


def test_rejects_nonpositive_width():
    with pytest.raises(ProfileError):
        build_profile([(30, 0.5), (0.0, 0.0)])
    with pytest.raises(ProfileError):
        build_profile([(-5, 0.5)])


def test_rejects_empty_segments():
    with pytest.raises(ProfileError):
        build_profile([])


def test_rejects_nonpositive_mass():
    with pytest.raises(ValueError):
        build_profile([(10, 0.1)], mass_factor=0.0)


@pytest.mark.parametrize("mass_factor", [0.0, -0.067, float("nan"), float("inf")])
def test_rejects_non_positive_or_non_finite_mass_as_profile_error(mass_factor):
    with pytest.raises(ProfileError, match="mass_factor must be positive and finite"):
        build_profile([(10, 0.1)], mass_factor=mass_factor)


@pytest.mark.parametrize("mass_factor", [0.0, -0.067, float("nan"), float("inf")])
def test_constants_refuse_a_mass_outside_zero_to_inf(mass_factor):
    """An infinite mass would give hbar^2/2m = 0, and with it k = E/0 and a NaN pole search."""
    with pytest.raises(ValueError, match="electron_mass_factor must be positive and finite"):
        PhysicalConstants(mass_factor)


@pytest.mark.parametrize("segment, message", [
    ((float("inf"), 0.1), "width must be positive and finite"),
    ((float("nan"), 0.1), "width must be positive and finite"),
    ((10.0, float("nan")), "height must be finite"),
    ((10.0, float("inf")), "height must be finite"),
    ((10.0, -float("inf")), "height must be finite"),
])
def test_rejects_non_finite_segment_numbers(segment, message):
    with pytest.raises(ProfileError, match=message):
        build_profile([(30.0, 0.5), segment])


def march_growth(state):
    """G: the product of the norms of the interface and phase matrices the march of ``state`` multiplies."""
    kappa = state._wave.kappa  # as marched, the kappa w floor included
    regions = np.concatenate([[state.k], kappa, [state.k]])
    p, q = regions[:-1], regions[1:]
    interfaces = np.prod((abs(q + p) + abs(q - p)) / (2 * abs(q)))
    return interfaces * np.exp(np.sum(abs(kappa.imag) * state._wave.profile.widths))


@settings(max_examples=50, deadline=None)
@given(
    segs=st.lists(
        st.tuples(
            st.floats(min_value=0.5, max_value=80.0, allow_nan=False),
            st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
        ),
        min_size=1,
        max_size=6,
    ),
    split_frac=st.floats(min_value=0.1, max_value=0.9),
    index=st.integers(min_value=0, max_value=5),
)
@example(segs=[(42.0, 0.7421875), (34.9375, 0.0), (32.0, 0.796875)], split_frac=0.5, index=0)  # G = 8.3e3 at 0.2 eV
@example(segs=[(0.5, 0.2)], split_frac=0.5, index=0)  # on the height at 0.2 eV
def test_segment_split_invariance(segs, split_frac, index):
    """Splitting a segment into two of equal height leaves t and r unchanged.

    Both marches round, and near a sharp resonance t and r are ill-conditioned:
    m22 = 1/t is what is left of terms as large as the product G of the norms
    of the march's interface and phase matrices, so rounding moves t by about
    eps G |t|^2 and r by about eps G |t|.  t is compared to 1e-13 G |t|^2 and
    r to 1e-13 G |t|; as G |t| >= 1 this is 1e-13 of |t| and of the unit
    incident flux where nothing cancels.  Random draws read at most 13 eps
    G |t|^2 and 5 eps G |t|, while a single unsplit march already misses a
    40-digit t by 1.1e-13 of itself where G = 8.3e3.  An energy on the split
    segment's height is skipped: there the kappa w floor differs between the
    two halves (kappa = floor / w), so the two profiles march different waves.
    """
    index = index % len(segs)
    width, height = segs[index]
    split = segs[:index] + [(width * split_frac, height), (width * (1 - split_frac), height)] + segs[index + 1 :]
    p0 = build_profile(segs)
    p1 = build_profile(split)
    assert p1.total_length == pytest.approx(p0.total_length, rel=1e-12)
    for energy in (0.01, 0.2, 0.7, 2.0):
        s0, s1 = stationary_state(p0, energy), stationary_state(p1, energy)
        if abs(s0._wave.kappa[index]) * width <= _KAPPA_W_FLOOR * (1 + 1e-12):
            continue
        t0, r0 = s0.transmission_amplitude, s0.reflection_amplitude
        bound = 1e-13 * march_growth(s0) * abs(t0)
        assert abs(s1.transmission_amplitude - t0) <= bound * abs(t0)
        assert abs(s1.reflection_amplitude - r0) <= bound
