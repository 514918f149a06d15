"""Faddeeva and Moshinsky functions over the full complex plane.

The transient kernel is the Moshinsky function M(y) = w(iy)/2 built from
the Faddeeva function w(z) = exp(-z^2) erfc(-iz), which the package
evaluates itself, in the upper half plane, by Weideman's rational form
(``_faddeeva_upper``): within 1.4e-15 of |w| against mpmath, with Re w =
exp(-x^2) exact on the real axis.  The direct evaluation serves Re(y) >= 0
(i.e. iy in the upper half plane); elsewhere M is obtained from the reflection

    M(y) = exp(y^2) - M(-y),

whose exponential exceeds the double range once Re(y^2) passes ~709.  One
vectorized kernel evaluates both branches; a reflected value is formed as
mantissa * exp(s) with s = max(Re y^2, 0), and ``moshinsky_m(y, scaled=True)``
returns that pair instead of multiplying it out.  The pole sum sends only
direct arguments (Re y > 0), so only the plain value enters the dynamics.

The pole sum takes M(y) from two series wherever they reach the rounding
floor: below |y| = ``Y_NEAR`` = 1 the Taylor series (Abramowitz & Stegun
7.1.8)

    M(y) = (1/2) sum_n (-y)^n / Gamma(n/2 + 1),

which is entire, and beyond |y| = ``Y_FAR`` = 8, for Re(y) > 0, the
large-argument series (A&S 7.1.23)

    M(y) ~ (2 sqrt(pi) y)^-1 sum_j (-1)^j (2j-1)!! / (2y^2)^j.

The pole sum takes ``TAYLOR_TERMS`` = 38 Taylor terms, 4.7e-16 worst
relative error against a 40-digit erfc at |y| = 1, and the asymptotic sum
stops before the first term below 1e-17 of the leading one, 17 terms at
|y| = 8 and 4e-16.  Both are linear in their coefficients, so
``dynamics`` sums them over many rays at once.  ``moshinsky_asymptotic`` is
the scalar form of the asymptotic sum.  Between the two, ``dynamics``
interpolates the summed direct-branch terms of its rays in r from
``BAND_NODES`` = 17 Chebyshev nodes on pieces of at most ``BAND_RATIO`` =
1.5 in r: one ray there is within 8.5e-15 of a 30-digit erfc, and the
kernel at the nodes within 9.0e-16.  A reflected ray adds its exp(y^2) apart.
That exp(y^2), the kernel's and the pole sum's alike, comes from
``_exp_square_in_place``: y^2 formed from the parts of y, then numpy's
real ``exp`` of Re y^2 times its ``cos`` and ``sin`` of Im y^2, as
accurately as ``np.exp`` at any phase.

Momentum arguments follow

    y_q = -exp(-i pi/4) sqrt(m / 2 hbar) (hbar q / m) sqrt(t)

with q one of +-k, +-k_n, +-k_n*; on resonance they depend only on the
sharpness ratio R_n and the time in lifetime units tau:
y_{+-q} = -+exp(-i pi/4) sqrt((R_n + s) tau), s = 0, -i/2, +i/2 for q = k, k_n, k_n*.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

EXP_MINUS_IPI4 = complex(0.7071067811865475, -0.7071067811865475)
"""exp(-i pi/4) with equal parts, so that y_k for real k has parts of equal magnitude and Re(y_k^2),
formed as (Re y - Im y)(Re y + Im y), is exactly 0; ``cmath.exp`` gives parts a bit apart."""

_SQRT_PI = math.sqrt(math.pi)


class MoshinskyOverflowError(OverflowError):
    """Unscaled output would exceed the floating-point range.

    The scaled pair from ``moshinsky_m(y, scaled=True)`` is always available.
    """


_WEIDEMAN_N = 40
_WEIDEMAN_L = math.sqrt(_WEIDEMAN_N / math.sqrt(2.0))


def _weideman_coefficients() -> list[float]:
    """2 a_1 .. 2 a_N of Weideman's p(Z) = sum_n a_n Z^(n-1), in the order of rising powers.

    a_n = (1/2M) sum_k f(t_k) cos(n theta_k) over theta_k = k pi / M, |k| < M = 2N, with
    t_k = L tan(theta_k / 2) and f(t) = exp(-t^2) (L^2 + t^2): the cosine sum that
    Weideman (1994) takes by FFT.  The factor 2 of w = 2 p / (L - iz)^2 + ... is folded in.
    """
    m = 2 * _WEIDEMAN_N
    theta = np.arange(1 - m, m) * (math.pi / m)
    t = _WEIDEMAN_L * np.tan(0.5 * theta)
    f = np.exp(-t * t) * (_WEIDEMAN_L**2 + t * t)
    n = np.arange(1, _WEIDEMAN_N + 1)
    return (np.cos(n[:, None] * theta) @ f / m).tolist()


_WEIDEMAN_2A = _weideman_coefficients()


def _faddeeva_upper(z: np.ndarray) -> np.ndarray:
    """w(z) for a 1-D complex array with Im z >= 0, by Weideman's N = 40 rational form (accuracy: ``faddeeva``).

    w(z) = 2 p(Z) / (L - iz)^2 + (L - iz)^-1 / sqrt(pi), Z = (L + iz) / (L - iz), L = sqrt(N / sqrt 2)
    (Weideman, SIAM J. Numer. Anal. 31, 1497 (1994)), with Re w = exp(-x^2) set where Im z = 0.
    p is summed by Horner's rule with numpy's complex multiply and add, two passes a coefficient.
    A one-element in-place complex multiply runs numpy's scalar loop, which rounds apart from
    its vector loops (74 of 200 random products with numpy 2.4 on AVX-512), so every pass runs
    over whole 8-point rows: z is zero-padded to a multiple of 8 and the first z.size values
    are returned.  A point's value then does not depend on the array it is in.
    """
    rows = np.zeros(-(-z.size // 8) * 8, dtype=complex)
    rows[: z.size] = z
    u = _WEIDEMAN_L - 1j * rows
    big_z = (_WEIDEMAN_L + 1j * rows) / u
    p = np.full(rows.shape, _WEIDEMAN_2A[-1], dtype=complex)
    for a in _WEIDEMAN_2A[-2::-1]:  # p <- p Z + a
        p *= big_z
        p += a
    w = ((p / u + 1.0 / _SQRT_PI) / u)[: z.size]
    real = z.imag == 0.0
    if np.any(real):
        w.real[real] = np.exp(-np.square(z.real[real]))
    return w


def _moshinsky_m_grid(y, scaled: bool = False):
    """Vectorized M(y) = w(iy)/2 over the full complex plane.

    Re(y) >= 0 is evaluated directly; elsewhere the reflection
    M(y) = exp(y^2) - M(-y) is formed as mantissa * exp(s) with
    s = max(Re y^2, 0).  ``scaled`` returns the (mantissa, log_scale) pair,
    which cannot overflow; the plain value multiplies it out and raises
    ``MoshinskyOverflowError`` past the double range.  Both branches take
    w in the upper half plane from ``_faddeeva_upper``, and neither runs on
    an empty mask.
    """
    y = np.asarray(y, dtype=complex)
    mantissa = np.empty_like(y)
    log_scale = np.zeros(y.shape)
    direct = y.real >= 0.0
    if np.any(direct):
        mantissa[direct] = 0.5 * _faddeeva_upper(1j * y[direct])
    if not np.all(direct):
        y_refl = y[~direct]
        s = np.maximum((y_refl.real - y_refl.imag) * (y_refl.real + y_refl.imag), 0.0)  # Re y^2 as the exp forms it
        m_minus = 0.5 * _faddeeva_upper(-1j * y_refl) * np.exp(-s)
        _exp_square_in_place(y_refl)  # y_refl now holds exp(y^2 - s)
        mantissa[~direct] = y_refl - m_minus
        log_scale[~direct] = s
    if scaled:
        return mantissa, log_scale
    with np.errstate(over="ignore", invalid="ignore"):
        value = mantissa * np.exp(log_scale)
    if np.any(np.isinf(value)):
        raise MoshinskyOverflowError(
            "M(y) exceeds the floating-point range; use moshinsky_m(y, scaled=True)"
        )
    return value


def moshinsky_m(y, *, scaled: bool = False):
    """Moshinsky function M(0, q; t) = w(iy_q)/2 for a scalar or an array.

    With ``scaled`` the result is the pair (mantissa, log_scale) with
    M = mantissa * exp(log_scale); otherwise a value beyond the double
    range raises ``MoshinskyOverflowError``.
    """
    result = _moshinsky_m_grid(y, scaled)
    if np.ndim(y) == 0:
        if scaled:
            return complex(result[0]), float(result[1])
        return complex(result)
    return result


def faddeeva(z):
    """Faddeeva function w(z) = exp(-z^2) erfc(-iz) = 2 M(-iz).

    In the upper half plane it is within 1.4e-15 of |w| against mpmath
    (1000 points, |z| from 1e-3 to 100), and Re w(x) = exp(-x^2) exactly on
    the real axis; just off the axis, for |Re z| >~ 3, Re w alone is tiny
    against |w| and only as close as |w| allows (2e-7 relative at 5 + 1e-8i).  The lower half plane goes through the
    reflection and raises ``MoshinskyOverflowError`` where the value exceeds
    the double range.
    """
    return 2.0 * moshinsky_m(-1j * np.asarray(z, dtype=complex))


Y_NEAR = 1.0
"""|y| below which the pole sum takes M(y) from its Taylor series."""

Y_FAR = 8.0
"""|y| from which the pole sum takes M(y) from its asymptotic series."""

TAYLOR_TERMS = 38
"""Taylor terms the pole sum takes below ``Y_NEAR``.

At |y| = 1, 38 terms reach 4.7e-16 against mpmath, 36 reach 5.9e-16 and 34
reach 5.3e-15.  Each run of points with the same rays near ends where one
of them reaches |y| = 1, so fewer terms at smaller |y| would save little
(1.4% of the Taylor work on the pole-sum benchmark).
"""

BAND_NODES = 17
"""First-kind Chebyshev nodes per piece on which the pole sum interpolates its rays between
``Y_NEAR`` and ``Y_FAR``."""

BAND_RATIO = 1.5
"""Largest r_hi / r_lo of one interpolation piece.

With 17 nodes a piece anywhere from |y| = 1 to 8 interpolates one
direct-branch ray, in any direction the pole sum makes, to within 1e-14.
A reflected ray's own M(y) would need more than 32 nodes on sharp poles,
whose exp(y^2) turns by up to ~35 radians across a piece, so the pole sum
adds that factor apart.
"""


def _taylor_coefficients(n: int) -> list[float]:
    """Coefficients b_0..b_{n-1} of M(y) = sum_n b_n y^n (A&S 7.1.8).

    From w(z) = sum_n (iz)^n / Gamma(n/2 + 1): b_n = (-1)^n / (2 Gamma(n/2 + 1)).
    """
    return [0.5 * (-1.0) ** j / math.gamma(0.5 * j + 1.0) for j in range(n)]


def _series_coefficients(n: int) -> list[float]:
    """Coefficients a_0..a_{n-1} of M(y) ~ (1/y) sum_j a_j y^(-2j) (A&S 7.1.23).

    From erfc(y) ~ exp(-y^2) / (sqrt(pi) y) sum_j (-1)^j (2j-1)!! / (2y^2)^j:
    a_j = (-1)^j (2j-1)!! / (2^(j+1) sqrt(pi)), so a_j = -a_{j-1} (2j-1) / 2.
    """
    coeffs = [1.0 / (2.0 * _SQRT_PI)]
    for j in range(1, n):
        coeffs.append(coeffs[-1] * -(2 * j - 1) / 2.0)
    return coeffs


def _series_terms(y_min: float) -> int:
    """Asymptotic terms for Re(y) > 0 and |y| >= y_min >= ``Y_FAR``.

    The sum stops before the first term below 1e-17 of the leading one at
    |y| = y_min, or before the terms start to grow, which only happens for
    y_min below about 6.3.  Within |arg y| <= pi/4 the error is at most
    that term; between pi/4 and pi/2 the bound of DLMF 7.12(i) grows by
    csc(2|arg y|), yet against mpmath the error stays below 5e-16 up to
    |arg y| = 1.5707.
    """
    ratio = 1.0 / (y_min * y_min)
    n, term = 1, 0.5 * ratio  # |a_n / a_0| / y_min^(2n), the first omitted term
    while term >= 1e-17 and (n + 0.5) * ratio < 1.0:  # past the smallest term they grow
        term *= (n + 0.5) * ratio
        n += 1
    return n


SERIES_TERMS = _series_terms(Y_FAR)
"""Asymptotic terms M needs at |y| = ``Y_FAR``, the most any point takes."""


def _horner(coeffs, x: np.ndarray) -> np.ndarray:
    """sum_n coeffs[n] x^n at every x; a complex x, since a real one is cast anew on every step."""
    acc = np.full(x.shape, coeffs[-1], dtype=complex)
    for a in coeffs[-2::-1]:
        acc *= x
        acc += a
    return acc


def _exp_square_in_place(y: np.ndarray) -> None:
    """y <- exp(y^2 - s), s = max(Re y^2, 0), for a complex array; s = 0 on the pole sum's rays.

    Im y^2 = 2 Re y Im y, and Re y^2 = (Re y - Im y)(Re y + Im y), within 1.5 eps of itself, not
    of |y|^2, and exactly 0 where the parts have equal magnitude: on y_k, |exp(y^2)| = 1 to rounding.
    The modulus comes from numpy's real exp and the phase from its real cos and sin, whose
    argument reduction holds at any finite Im y^2: against mpmath the result is within 4e-16
    relative of exp(y^2 - s) where y^2 is exact in double, at |Im y^2| up to 2^52 as below 1.
    """
    re, im = y.real, y.imag
    phase = np.multiply(re, im)
    phase += phase  # Im y^2
    modulus = np.subtract(re, im)
    modulus *= np.add(re, im)  # Re y^2
    np.exp(np.minimum(modulus, 0.0, out=modulus), out=modulus)
    np.cos(phase, out=re)
    np.sin(phase, out=im)
    re *= modulus
    im *= modulus


def moshinsky_asymptotic(y, n_terms: int = 3) -> tuple[complex, float]:
    """Partial sum of the large-argument expansion plus a truncation bound.

    ``n_terms`` counts powers 1/y .. 1/y^n_terms, of which the even ones
    vanish.  Valid for -pi/2 < arg(y) < pi/2 and |y| of at least ``Y_FAR``; the
    error estimate is the magnitude of the first omitted nonzero term.
    """
    y = complex(y)
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    phase = cmath.phase(y)
    if not (-0.5 * math.pi < phase < 0.5 * math.pi):
        raise ValueError(f"arg(y) = {phase:.3f} outside the validity sector (-pi/2, pi/2)")
    if abs(y) < Y_FAR:
        raise ValueError(f"|y| = {abs(y):.3f} below the asymptotic threshold {Y_FAR}")
    n = (n_terms + 1) // 2
    inv = 1.0 / np.asarray([y])  # the first n terms by Horner's rule in 1/y^2
    value = complex((inv * _horner(_series_coefficients(n), inv * inv))[0])
    bound = abs(_series_coefficients(n + 1)[n]) / abs(y) ** (2 * n + 1)
    return value, bound
