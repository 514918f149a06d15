import cmath
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import wofz

from rtbuildup import (
    HBAR_EV_FS,
    MoshinskyOverflowError,
    build_profile,
    evolve_full,
    faddeeva,
    moshinsky_asymptotic,
    moshinsky_m,
)
import rtbuildup.dynamics
from rtbuildup.dynamics import EXP_MINUS_IPI4, Y_NEAR, _Rays
from rtbuildup.moshinsky import (
    Y_FAR,
    _exp_square_in_place,
    _faddeeva_upper,
    _moshinsky_m_grid,
)

mp.mp.dps = 35


def faddeeva_reference(z: complex) -> complex:
    """High-precision w(z) = exp(-z^2) erfc(-iz) via mpmath (independent oracle)."""
    zm = mp.mpc(z.real, z.imag)
    return complex(mp.e ** (-(zm**2)) * mp.erfc(-1j * zm))


def identity_residual(y: complex) -> float:
    """|M(y) + M(-y) - exp(y^2)| relative to the largest participating term.

    Normalizing by exp(y^2) alone is unattainable in fixed precision where
    Re(y^2) is strongly negative (the two M values would have to cancel to
    hundreds of digits), so the residual is measured against the dominant
    magnitude, the forward-stable form of the identity.  Each M comes as the
    kernel's scaled pair (mantissa, log_scale), so nothing overflows.
    """
    (m_pos, s_pos), (m_neg, s_neg) = moshinsky_m(y, scaled=True), moshinsky_m(-y, scaled=True)
    yy = y * y
    common = max(s_pos, s_neg, yy.real)
    terms = (m_pos * math.exp(s_pos - common), m_neg * math.exp(s_neg - common))
    rhs = cmath.exp(yy - common)
    return abs(sum(terms) - rhs) / max(abs(terms[0]), abs(terms[1]), abs(rhs))


# ---------------------------------------------------------------- faddeeva

def test_faddeeva_at_zero():
    assert faddeeva(0.0) == pytest.approx(1.0)


def test_faddeeva_at_i_matches_erfc_oracle():
    # w(i) = e * erfc(1); frozen from mpmath at 40 digits
    assert faddeeva(1j) == pytest.approx(0.42758357615580700441, rel=1e-14)


@pytest.mark.parametrize(
    "z,expected",
    [
        (0.5 + 0.5j, 0.533156707912174914 + 0.230488231384458409j),
        (3.0 + 0.0j, 0.000123409804086679549 + 0.201157317037600387j),
        (2.0 + 1.0j, 0.140239581366277944 + 0.222213440179899103j),
    ],
)
def test_faddeeva_frozen_values(z, expected):
    assert faddeeva(z) == pytest.approx(expected, rel=1e-13)


def test_faddeeva_real_axis_identity():
    # Re w(x) = exp(-x^2) exactly on the real axis
    for x in (0.3, 1.0, 2.5, 5.0):
        assert faddeeva(x).real == pytest.approx(math.exp(-x * x), rel=1e-12, abs=0)


def test_faddeeva_upper_half_plane_accuracy_batch():
    rng = np.random.default_rng(20240811)
    r = 10.0 ** rng.uniform(-3, 2, 300)
    th = rng.uniform(0.0, np.pi, 300)
    zs = r * np.cos(th) + 1j * r * np.sin(th)
    for z in zs:
        ref = faddeeva_reference(complex(z))
        assert abs(faddeeva(complex(z)) - ref) <= 1e-13 * abs(ref)


def test_faddeeva_upper_matches_mpmath_and_scipy(monkeypatch, symmetric_profile, symmetric_poles_8ev,
                                                 asymmetric_profile, asymmetric_poles):
    """The package's w within 2e-15 of |w| of mpmath, and within scipy's own error (3e-14) of its ``wofz``.

    On 200 points of criterion 6's draw; on 200 seeded arguments z = iy of
    the band nodes the pole sum sends the kernel, recorded on both configs;
    and on seven points each at |z| = 1e3 and 1e6.  On the real axis Re w
    is exp(-x^2) to the bit.
    """
    recorded = []

    def recording_kernel(y, scaled=False):
        recorded.append(np.ravel(y))
        return _moshinsky_m_grid(y, scaled)

    monkeypatch.setattr(rtbuildup.dynamics, "_moshinsky_m_grid", recording_kernel)
    t_fs = np.geomspace(1e-3, 1e5, 12287)
    evolve_full(symmetric_profile, symmetric_poles_8ev, 0.2, 80.0, t_fs=t_fs)
    evolve_full(asymmetric_profile, asymmetric_poles, 0.15, 55.0, t_fs=t_fs)
    rng = np.random.default_rng(42)
    radius = 10.0 ** rng.uniform(-3, 2, 1000)
    angle = rng.uniform(0.0, np.pi, 1000)
    drawn = (radius * np.cos(angle) + 1j * radius * np.sin(angle))[:200]
    nodes = 1j * np.random.default_rng(52).choice(np.concatenate(recorded), 200, replace=False)
    assert np.all(nodes.imag >= 0.0)
    large = np.outer([1e3, 1e6], np.exp(1j * np.linspace(0.0, np.pi, 7))).ravel()
    z = np.concatenate([drawn, nodes, large])
    value = _faddeeva_upper(z)
    assert np.max(np.abs(value - wofz(z)) / np.abs(value)) <= 3e-14
    for zi, v in zip(z.tolist(), value.tolist()):
        expected = faddeeva_reference(zi)
        assert abs(v - expected) <= 2e-15 * abs(expected), zi
    # a bound relative to |w| cannot see Re w = exp(-25) at x = 5 (1.4e-11 against |w| = 0.115)
    x = np.asarray([0.3, 1.0, 2.5, 5.0, 27.0])
    assert np.array_equal(_faddeeva_upper(x + 0j).real, np.exp(-x * x))


def test_value_does_not_depend_on_the_array_it_is_in():
    """w and M(y) = w(iy)/2 read the same bits one point at a time, in every slice of 2 to 17, and as one grid.

    ``_faddeeva_upper`` sums p(Z) with numpy's complex multiply, whose
    one-element in-place loop rounds apart from its vector loops; the
    whole-row rule keeps a point's value independent of its array.
    """
    rng = np.random.default_rng(53)
    radius = 10.0 ** rng.uniform(-3, 2, 60)
    angle = rng.uniform(0.0, np.pi, 60)
    z = np.concatenate([radius * np.exp(1j * angle), [0.3, -2.5, 5.0, 5.0 + 1e-8j]])
    y = -1j * z  # iy = z: the kernel's direct branch
    assert np.all(z.imag >= 0.0) and np.all(y.real >= 0.0)
    w_grid, m_grid = _faddeeva_upper(z), moshinsky_m(y)
    assert np.array_equal([_faddeeva_upper(z[i : i + 1])[0] for i in range(z.size)], w_grid)
    assert np.array_equal([moshinsky_m(complex(v)) for v in y], m_grid)
    for length in range(2, 18):
        for start in range(z.size - length + 1):
            piece = slice(start, start + length)
            assert np.array_equal(_faddeeva_upper(z[piece]), w_grid[piece]), (length, start)
            assert np.array_equal(moshinsky_m(y[piece]), m_grid[piece]), (length, start)


def test_faddeeva_lower_half_plane_against_oracle():
    for z in (0.5 - 0.8j, 2.0 - 1.0j, -1.5 - 2.5j, 0.1 - 5.0j):
        ref = faddeeva_reference(z)
        assert faddeeva(z) == pytest.approx(ref, rel=1e-11)


def test_faddeeva_overflow_signal_and_scaled_escape():
    z = 1.0 - 30.0j  # exp(-z^2) ~ exp(899)
    with pytest.raises(MoshinskyOverflowError):
        faddeeva(z)
    mantissa, log_scale = moshinsky_m(-1j * z, scaled=True)  # w(z) = 2 M(-iz)
    zm = mp.mpc(z.real, z.imag)
    ref_log = mp.log(abs(mp.e ** (-(zm**2)) * mp.erfc(-1j * zm)))
    assert math.log(abs(2.0 * mantissa)) + log_scale == pytest.approx(float(ref_log), rel=1e-12)


# ---------------------------------------------------------------- moshinsky_m

def test_m_at_zero_is_half():
    assert moshinsky_m(0.0) == pytest.approx(0.5)


def test_m_matches_direct_definition_both_half_planes():
    """Scalar and array evaluations both match the mpmath oracle, on either branch."""
    fixed = [1.2 + 0.3j, -0.7 + 0.2j, -2.0 - 1.0j, 3.0 - 0.5j,
             0.5 + 0.1j, -0.5 + 0.1j, 2.0 - 3.0j, -2.0 - 3.0j, 10.0 + 0.0j]
    rng = np.random.default_rng(7)
    ys = np.concatenate([fixed, rng.uniform(-5, 5, 200) + 1j * rng.uniform(-5, 5, 200)])
    grid = moshinsky_m(ys)
    for y, g in zip(ys, grid):
        ref = 0.5 * faddeeva_reference(1j * complex(y))
        assert moshinsky_m(complex(y)) == pytest.approx(ref, rel=1e-11)
        assert g == moshinsky_m(complex(y))


def test_symmetry_identity_on_log_grid():
    worst = 0.0
    for r in np.geomspace(1e-3, 30.0, 31):
        for phase in np.arange(16) / 16.0 * 2.0 * np.pi:
            worst = max(worst, identity_residual(r * cmath.exp(1j * phase)))
    assert worst < 1e-11


@settings(max_examples=80, deadline=None)
@given(
    r=st.floats(min_value=1e-3, max_value=25.0),
    phase=st.floats(min_value=0.0, max_value=2.0 * math.pi),
)
def test_symmetry_identity_property(r, phase):
    assert identity_residual(r * cmath.exp(1j * phase)) < 1e-11


def test_reflect_at_zero():
    # the reflected branch, exp(y^2) - M(-y), meets M(0) = 1/2 at the origin
    for y in (-1e-9, -1e-9 + 1e-9j, -1e-9 - 1e-9j):
        mantissa, log_scale = moshinsky_m(y, scaled=True)
        assert log_scale <= 1e-18
        assert mantissa * math.exp(log_scale) == pytest.approx(0.5, rel=1e-8)


def test_reflect_dominated_by_exponential_where_it_grows():
    # exp(y^2) dominates where Re(y) < 0 and Re(y^2) is large positive
    y = -20.0
    mantissa, log_scale = moshinsky_m(y, scaled=True)
    assert log_scale == y * y
    assert math.log(abs(mantissa)) + log_scale == pytest.approx(y * y, abs=1e-3)
    # on the opposite ray the direct value carries no scale
    assert moshinsky_m(20.0, scaled=True) == (moshinsky_m(20.0), 0.0)


def test_grid_evaluator_overflow_guard():
    with pytest.raises(MoshinskyOverflowError):
        _moshinsky_m_grid(np.asarray([-40.0 + 0.0j]))


def masked_kernel(y, scaled=False):
    """The general-plane kernel with masks and a scale on every input (the reference).

    It takes w from the package's own ``_faddeeva_upper``, as the kernel does:
    these tests check the masks and branches, and the oracle test below checks w.
    """
    y = np.asarray(y, dtype=complex)
    mantissa = np.empty_like(y)
    log_scale = np.zeros(y.shape)
    direct = y.real >= 0.0
    mantissa[direct] = 0.5 * _faddeeva_upper(1j * y[direct])
    if not np.all(direct):
        y_refl = y[~direct]
        s = np.maximum((y_refl.real - y_refl.imag) * (y_refl.real + y_refl.imag), 0.0)
        mantissa[~direct] = exp_square(y_refl) - 0.5 * _faddeeva_upper(-1j * y_refl) * np.exp(-s)
        log_scale[~direct] = s
    if scaled:
        return mantissa, log_scale
    with np.errstate(over="ignore", invalid="ignore"):
        value = mantissa * np.exp(log_scale)
    if np.any(np.isinf(value)):
        raise MoshinskyOverflowError("M(y) exceeds the floating-point range")
    return value


def assert_same_kernel(y):
    mantissa, log_scale = _moshinsky_m_grid(y, scaled=True)
    ref_mantissa, ref_log_scale = masked_kernel(y, scaled=True)
    assert np.array_equal(mantissa, ref_mantissa)
    assert np.array_equal(log_scale, ref_log_scale)
    try:
        expected = masked_kernel(y)
    except MoshinskyOverflowError:
        with pytest.raises(MoshinskyOverflowError):
            _moshinsky_m_grid(y)
    else:
        assert np.array_equal(_moshinsky_m_grid(y), expected)


ray = st.tuples(
    st.integers(min_value=0, max_value=3),  # quadrant of c
    st.floats(min_value=0.0, max_value=0.5 * math.pi),
    st.lists(st.floats(min_value=0.0, max_value=1e4), min_size=1, max_size=40),
)


def ray_points(quadrant, angle, r):
    """y = c r for the unit c at ``angle`` into ``quadrant``."""
    return cmath.exp(1j * (0.5 * math.pi * quadrant + angle)) * np.asarray(r)


@settings(max_examples=300, deadline=None)
@given(ray)
def test_grid_kernel_matches_masked_reference_on_rays(ray):
    # one-branch rays, as the pole sum sends them, leave one mask empty and must agree bit for bit
    assert_same_kernel(ray_points(*ray))


@settings(max_examples=100, deadline=None)
@given(ray, ray)
def test_grid_kernel_matches_masked_reference_on_mixed_arrays(first, second):
    y = ray_points(*first)
    assert_same_kernel(np.concatenate([y, -y, ray_points(*second)]))


def test_grid_kernel_matches_masked_reference_on_pole_sum_rays():
    # y_{+-k} for real k, and y_{k_n}, y_{-k_n*} for k_n = a - ib with a > b and a < b
    r = np.geomspace(1e-6, 1e4, 2001)
    for q in (0.02 + 0.0j, 0.3 - 0.01j, 0.01 - 0.3j):
        for c in (-EXP_MINUS_IPI4 * q, EXP_MINUS_IPI4 * np.conj(q)):
            assert_same_kernel(c * r)


def test_grid_kernel_scaled_pair_matches_erfc_on_seeded_rays():
    """The scaled pair against 0.5 exp(y^2 - log_scale) erfc(y) from mpmath, to criterion 6's 1e-13.

    Five rays into each quadrant, the diagonal and four seeded angles, for
    |y| from 1e-3 to 20; past that the rounding of y^2 alone moves
    exp(y^2) by more than 1e-13 (about 8e-13 at |y| = 100).
    """
    rng = np.random.default_rng(20261019)
    for quadrant in range(4):
        for angle in [0.25 * math.pi, *rng.uniform(0.0, 0.5 * math.pi, 4)]:
            y = ray_points(quadrant, angle, np.geomspace(1e-3, 20.0, 20))
            mantissa, log_scale = _moshinsky_m_grid(y, scaled=True)
            for yi, m, s in zip(y.tolist(), mantissa.tolist(), log_scale.tolist()):
                ym = mp.mpc(yi.real, yi.imag)
                expected = complex(0.5 * mp.exp(ym * ym - s) * mp.erfc(ym))
                assert abs(m - expected) <= 1e-13 * abs(expected), (yi, m, expected)


# ---------------------------------------------------------------- exp(y^2)

def exp_square(y):
    out = np.array(y, dtype=complex)
    _exp_square_in_place(out)
    return out


def exactly_squared(z):
    """A y near sqrt(z) whose y^2 the kernel forms exactly, so that a test of it measures the exp alone.

    Both parts are integers below 2^25 times one power of two, so Re y -+ Im y
    and their product, and 2 Re y Im y, are exact in double.
    """
    y = np.sqrt(np.asarray(z, dtype=complex))
    quantum = 2.0 ** (np.floor(np.log2(np.maximum(np.abs(y.real), np.abs(y.imag)))) - 24)
    return (np.rint(y.real / quantum) + 1j * np.rint(y.imag / quantum)) * quantum


def mp_exp_square(y):
    """exp(y^2 - max(Re y^2, 0)) of the double y, in mpmath."""
    yy = mp.mpc(y.real, y.imag) ** 2
    return mp.exp(yy - max(yy.real, 0))


def test_exp_matches_mpmath_to_the_last_digit_of_np_exp():
    """2,000 seeded y, Re y^2 in about [-64, 0], |Im y^2| <= 1e6, and 450 more with |Im y^2| from 1e6
    to 1e14: within 4e-16 relative (np.exp reads about 2.5e-16).

    Re y^2 may come out a little above 0, where it is clipped, as the reference is.  The far
    phases, toward the 2^52 the CLI admits, are held to the same bound: a phase reduced in
    double by a fixed step would be off there by up to |Im y^2| eps.
    """
    rng = np.random.default_rng(20260)
    z = rng.uniform(-64.0, 0.0, 2000) + 1j * rng.uniform(-1e6, 1e6, 2000)
    z[:500] = z[:500].real + 1j * rng.uniform(-10.0, 10.0, 500)  # within a few turns as well
    far = np.geomspace(1e6, 1e14, 9).repeat(50) * rng.uniform(1.0, 1.5, 450) * rng.choice([-1.0, 1.0], 450)
    z = np.concatenate([z, rng.uniform(-64.0, 0.0, 450) + 1j * far])
    y = exactly_squared(z)
    for yi, value in zip(y, exp_square(y)):
        exact = mp_exp_square(yi)
        assert abs(mp.mpc(value.real, value.imag) - exact) <= 4e-16 * abs(exact), yi


def test_exp_of_an_imaginary_argument_has_modulus_one():
    """y = exp(-i pi/4) u, the free ray's direction: parts of equal magnitude, so y^2 is imaginary."""
    rng = np.random.default_rng(20261)
    y = EXP_MINUS_IPI4 * rng.uniform(-1e3, 1e3, 24_581)
    assert np.max(np.abs(np.abs(exp_square(y)) - 1.0)) <= 2 * np.finfo(float).eps


def test_exp_is_the_same_taken_whole_or_in_pieces():
    """Points are independent: the chunks a long array is taken in change no bit."""
    rng = np.random.default_rng(20262)
    z = rng.uniform(-60.0, 0.0, 16_391) + 1j * rng.uniform(-1e5, 1e5, 16_391)
    y = np.sqrt(z)
    pieces = np.concatenate([exp_square(y[i : i + 999]) for i in range(0, y.size, 999)])
    assert np.array_equal(exp_square(y), pieces)
    assert exp_square(np.empty(0)).size == 0


@pytest.mark.parametrize("im", [2.0**40, -(2.0**40), 1e20, -1e20, 1e300])
def test_exp_of_a_large_phase_is_finite_and_keeps_its_modulus(im):
    """A phase up to 1e300 gives a finite value and no warning, with |exp y^2| = exp(Re y^2).

    y = a + i (a + d) with Im y^2 near ``im``: d = 0 gives Re y^2 = 0, and d
    a power of two from 2 ulp(a) up gives Re y^2 = -d (2a + d), exact in
    double, which at |Im y^2| = 1e20 and beyond underflows exp to 0.
    """
    a = math.sqrt(abs(im) / 2.0)
    d = np.asarray([0.0, 2.0, 2.0**8, 2.0**16]) * math.ulp(a)
    y = a + 1j * math.copysign(1.0, im) * (a + d)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        value = exp_square(y)
    assert np.all(np.isfinite(value))
    np.testing.assert_allclose(np.abs(value), [float(abs(mp_exp_square(yi))) for yi in y], rtol=4e-16)


def test_reflection_identity_has_modulus_one_on_the_free_ray():
    """|M(y) + M(-y)| = |exp(y^2)| = 1 within 4 eps on y = a (-1 + i), a from 1e-3 to 1e7.

    Re(y^2) is exactly 0 there, so the kernel's reflected exp(y^2) keeps
    modulus 1 wherever the phase is held; a y^2 squared as y * y leaves a
    residual of about |y|^2 eps in Re(y^2), 3.5e13 eps at a = 1e7.
    """
    y = np.geomspace(1e-3, 1e7, 20001) * complex(-1.0, 1.0)
    assert np.max(np.abs(np.abs(moshinsky_m(y) + moshinsky_m(-y)) - 1.0)) <= 4 * np.finfo(float).eps


# ---------------------------------------------------------------- asymptotics

def collapsed_ray(monkeypatch, c, r):
    """M(c r) from the collapsed series for one ray of unit weight; no point may reach the kernel."""

    def no_kernel(y):
        raise AssertionError("a point between Y_NEAR and Y_FAR went to the kernel")

    monkeypatch.setattr(rtbuildup.dynamics, "_moshinsky_m_grid", no_kernel)
    out = np.zeros(r.size, dtype=complex)
    _Rays(np.asarray([c]), np.asarray([1.0 + 0.0j]), r).add_to(out)
    return out


@pytest.mark.parametrize("phase", np.linspace(-1.5707, 1.5707, 15))
def test_far_series_matches_oracle(monkeypatch, phase):
    c = cmath.exp(1j * phase)
    r = np.geomspace((1.0 + 1e-14) * Y_FAR / abs(c), 1e4, 40)  # starts at |y| = Y_FAR, just inside the band
    value = collapsed_ray(monkeypatch, c, r)
    for yi, v in zip(c * r, value):
        expected = 0.5 * faddeeva_reference(1j * yi)
        assert abs(v - expected) <= 1e-15 * abs(expected)


@pytest.mark.parametrize("phase", np.linspace(-math.pi, math.pi, 17))
def test_taylor_series_matches_oracle(monkeypatch, phase):
    # the Taylor series is entire, so reflected rays take it as they are
    c = cmath.exp(1j * phase)
    r = np.geomspace(1e-4, (1.0 - 1e-14) * Y_NEAR, 40) / abs(c)
    value = collapsed_ray(monkeypatch, c, r)
    for yi, v in zip(c * r, value):
        expected = 0.5 * faddeeva_reference(1j * yi)
        assert abs(v - expected) <= 1e-15 * abs(expected)


def test_asymptotic_leading_term_large_real_argument():
    y = 50.0
    approx, _ = moshinsky_asymptotic(y, 1)
    assert approx == pytest.approx(1.0 / (2.0 * math.sqrt(math.pi) * y), rel=1e-12)
    assert moshinsky_m(y) == pytest.approx(approx, rel=5e-4)


def test_asymptotic_within_truncation_bound():
    # the bound is asymptotically sharp, so allow it a 5% slack
    cases = [(20.0, -math.pi / 8, 3), (8.5, 0.2, 3), (12.0, 0.0, 5), (60.0, -1.0, 4), (9.0, 1.2, 2)]
    for r, phase, n in cases:
        y = r * cmath.exp(1j * phase)
        approx, bound = moshinsky_asymptotic(y, n)
        err = abs(approx - moshinsky_m(y))
        assert err <= 1.05 * bound + 1e-15 * abs(moshinsky_m(y))


def test_asymptotic_bound_holds_past_the_double_range_of_y_to_the_term_count():
    """|y|^(n + 2) overflows, yet the pair is finite and passes criterion 6's check; from n = 343
    a coefficient itself overflows, and the call is refused."""
    for y, n in [(1000.0, 101), (100.0, 153), (20.0, 235), (8.0, 341)]:
        approx, bound = moshinsky_asymptotic(y, n)
        assert cmath.isfinite(approx) and math.isfinite(bound)
        assert abs(approx - moshinsky_m(y)) <= 1.05 * bound + 1e-15 * abs(moshinsky_m(y))
    with pytest.raises(ValueError, match="n_terms = 343"):
        moshinsky_asymptotic(8.0, 343)


def test_asymptotic_bound_shrinks_with_more_terms():
    y = 15.0 * cmath.exp(-0.3j)
    errs = [abs(moshinsky_asymptotic(y, n)[0] - moshinsky_m(y)) for n in (1, 3, 5)]
    assert errs[0] > errs[1] > errs[2]


def test_asymptotic_rejects_outside_sector():
    with pytest.raises(ValueError):
        moshinsky_asymptotic(10.0 * cmath.exp(0.75j * math.pi), 3)
    with pytest.raises(ValueError):
        moshinsky_asymptotic(-12.0, 3)


def test_asymptotic_rejects_small_modulus():
    with pytest.raises(ValueError):
        moshinsky_asymptotic(2.0, 3)
    with pytest.raises(ValueError, match="n_terms must be >= 1"):
        moshinsky_asymptotic(10.0, n_terms=0)


def test_on_resonance_argument_asymptotics_match_direct():
    # left-moving y_{-k} = e^(-i pi/4) sqrt(R tau) at R tau = 100 sits in the validity sector
    arg = EXP_MINUS_IPI4 * cmath.sqrt(10.0 * 10.0)
    approx, bound = moshinsky_asymptotic(arg, 3)
    assert abs(approx - moshinsky_m(arg)) <= 1.05 * bound


def test_decay_of_reflected_kernels_with_time():
    # the three kernels entering the long-time remainder all fade out:
    # y_{-q} = e^(-i pi/4) sqrt((R + s) tau) with s = 0, -i/2, +i/2 for q = k, k_n, k_n*
    r_ratio = 315.0
    taus = [5.0, 20.0, 80.0, 320.0]
    for shift in (0.0, -0.5j, 0.5j):
        mags = [abs(moshinsky_m(EXP_MINUS_IPI4 * cmath.sqrt((r_ratio + shift) * tau))) for tau in taus]
        assert all(a > b for a, b in zip(mags, mags[1:]))
        assert mags[-1] < 0.01


# ---------------------------------------------------------------- arguments

def test_argument_routes_agree_on_resonance():
    """y_q = -e^(-i pi/4) q sqrt(hbar t / 2m) is -e^(-i pi/4) sqrt((R_n + s) tau) on resonance.

    s = 0, -i/2, +i/2 for q = k, k_n, k_n*; y_{-q} = -y_q on both sides.
    """
    profile = build_profile([(1.0, 0.0)])
    r_ratio, eps_ev = 312.9, 0.0378539
    gamma_ev = eps_ev / r_ratio
    lifetime = HBAR_EV_FS / gamma_ev
    k = profile.wavevector(eps_ev)
    k_n = cmath.sqrt(complex(eps_ev, -0.5 * gamma_ev) / profile.hbar2_over_2m)
    for tau in (0.05, 1.0, 12.0, 60.0):
        root_t = math.sqrt(profile.hbar2_over_2m * tau * lifetime / HBAR_EV_FS)
        for q, shift in ((k, 0.0), (k_n, -0.5j), (k_n.conjugate(), 0.5j)):
            physical = -EXP_MINUS_IPI4 * q * root_t
            rescaled = -EXP_MINUS_IPI4 * cmath.sqrt((r_ratio + shift) * tau)
            assert abs(physical - rescaled) <= 1e-12 * abs(physical)


@settings(max_examples=60, deadline=None)
@given(
    r_ratio=st.floats(min_value=5.0, max_value=500.0),
    tau=st.floats(min_value=1e-3, max_value=80.0),
)
def test_argument_routes_agree_property(r_ratio, tau):
    profile = build_profile([(1.0, 0.0)])
    eps_ev = 0.05
    gamma_ev = eps_ev / r_ratio
    k_n = cmath.sqrt(complex(eps_ev, -0.5 * gamma_ev) / profile.hbar2_over_2m)
    t_fs = tau * HBAR_EV_FS / gamma_ev
    physical = -EXP_MINUS_IPI4 * k_n * math.sqrt(profile.hbar2_over_2m * t_fs / HBAR_EV_FS)
    rescaled = -EXP_MINUS_IPI4 * cmath.sqrt((r_ratio - 0.5j) * tau)
    assert abs(physical - rescaled) <= 1e-12 * abs(physical)


# ---------------------------------------------------------------- scaled pair

def test_scaled_roundtrip_and_arithmetic():
    # mantissa * exp(log_scale) is the plain value while it fits a double
    ys = np.asarray([-3.0 + 1.0j, -20.0 + 0.5j, -26.0 + 0.0j, 4.0 - 2.0j])
    mantissa, log_scale = moshinsky_m(ys, scaled=True)
    assert np.all(log_scale == np.maximum((ys * ys).real, 0.0) * (ys.real < 0.0))
    np.testing.assert_allclose(mantissa * np.exp(log_scale), moshinsky_m(ys), rtol=1e-15)
    # past the range only the pair survives; its log matches mpmath
    y = -28.0 + 0.5j
    with pytest.raises(MoshinskyOverflowError):
        moshinsky_m(y)
    mantissa, log_scale = moshinsky_m(y, scaled=True)
    z = 1j * mp.mpc(y.real, y.imag)  # M(y) = w(iy)/2
    ref_log = mp.log(abs(0.5 * mp.e ** (-(z**2)) * mp.erfc(-1j * z)))
    assert math.log(abs(mantissa)) + log_scale == pytest.approx(float(ref_log), rel=1e-13)

