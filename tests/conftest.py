import pytest

from rtbuildup import build_profile, find_poles


@pytest.fixture(scope="session")
def symmetric_profile():
    # 0.5 eV barriers, 30 A wide, around a 100 A well
    return build_profile([(30.0, 0.5), (100.0, 0.0), (30.0, 0.5)])


@pytest.fixture(scope="session")
def asymmetric_profile():
    # 0.3 eV barriers of 30 A and 100 A around a 50 A well
    return build_profile([(30.0, 0.3), (50.0, 0.0), (100.0, 0.3)])


@pytest.fixture(scope="session")
def symmetric_poles(symmetric_profile):
    return find_poles(symmetric_profile, 0.4)


@pytest.fixture(scope="session")
def asymmetric_poles(asymmetric_profile):
    return find_poles(asymmetric_profile, 0.3)


@pytest.fixture(scope="session")
def symmetric_poles_8ev(symmetric_profile):
    """All 18 symmetric poles up to 8 eV, most above the barrier top (recovered)."""
    poles = find_poles(symmetric_profile, 8.0)
    assert len(poles) == 18
    return poles


@pytest.fixture(scope="session")
def reference_configs(symmetric_profile, asymmetric_profile, symmetric_poles, asymmetric_poles):
    """(label, profile, state, observation position) for the four benchmark runs."""
    return [
        ("sym-n1", symmetric_profile, symmetric_poles[0], 80.0),
        ("sym-n2", symmetric_profile, symmetric_poles[1], 48.0),
        ("sym-n3", symmetric_profile, symmetric_poles[2], 80.0),
        ("asym-n1", asymmetric_profile, asymmetric_poles[0], 55.0),
    ]
