import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtbuildup import ProfileError, build_profile, potential_at


def test_total_length_symmetric():
    p = build_profile([(30, 0.5), (100, 0.0), (30, 0.5)], mass_factor=0.067)
    assert p.total_length == 160.0


def test_total_length_asymmetric():
    p = build_profile([(30, 0.3), (50, 0.0), (100, 0.3)], mass_factor=0.067)
    assert p.total_length == 180.0


def test_single_well_segment():
    p = build_profile([(10, -0.1)])
    assert p.total_length == 10.0
    assert potential_at(p, 5.0) == -0.1


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


@pytest.mark.parametrize(
    "x,expected",
    [(80.0, 0.0), (-5.0, 0.0), (15.0, 0.5), (0.0, 0.5), (30.0, 0.0), (160.0, 0.0), (1e6, 0.0)],
)
def test_potential_at_points(x, expected):
    p = build_profile([(30, 0.5), (100, 0.0), (30, 0.5)])
    assert potential_at(p, x) == expected


def test_potential_at_midpoints_round_trip():
    segs = [(12.5, 0.3), (47.0, -0.2), (8.0, 1.1), (20.0, 0.0)]
    p = build_profile(segs)
    x = 0.0
    for width, height in segs:
        assert potential_at(p, x + width / 2) == height
        x += width


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
def test_segment_split_invariance(segs, split_frac, index):
    """Splitting a segment into two of equal height changes nothing observable."""
    index = index % len(segs)
    width, height = segs[index]
    split = segs[:index] + [(width * split_frac, height), (width * (1 - split_frac), height)] + segs[index + 1 :]
    p0 = build_profile(segs)
    p1 = build_profile(split)
    assert p1.total_length == pytest.approx(p0.total_length, rel=1e-12)
    for x in np.linspace(-1.0, p0.total_length + 1.0, 97):
        if any(abs(x - b) < 1e-9 for b in np.concatenate([p0.boundaries, p1.boundaries])):
            continue  # boundary convention is measure-zero by design
        assert potential_at(p1, x) == potential_at(p0, x)
