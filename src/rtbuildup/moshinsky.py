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
returns that pair instead of multiplying it out.  ``dynamics`` sums M over
the rays of the pole sum and sends the kernel only direct arguments (Re y > 0).
"""

from __future__ import annotations

import cmath
import math

import numpy as np

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


Y_FAR = 8.0
"""|y| from which the pole sum takes M(y) from its asymptotic series, and below which
``moshinsky_asymptotic`` refuses."""


def _series_coefficients(n: int) -> list[float]:
    """Coefficients a_0..a_{n-1} of M(y) ~ (1/y) sum_j a_j y^(-2j) (A&S 7.1.23).

    From erfc(y) ~ exp(-y^2) / (sqrt(pi) y) sum_j (-1)^j (2j-1)!! / (2y^2)^j:
    a_j = (-1)^j (2j-1)!! / (2^(j+1) sqrt(pi)), so a_j = -a_{j-1} (2j-1) / 2.
    """
    coeffs = [1.0 / (2.0 * _SQRT_PI)]
    for j in range(1, n):
        coeffs.append(coeffs[-1] * -(2 * j - 1) / 2.0)
    return coeffs


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
    error estimate is the magnitude of the first omitted nonzero term.  From
    ``n_terms`` = 343 on, that term's coefficient exceeds the double range and
    the call raises ``ValueError``.
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
    coeffs = _series_coefficients(n + 1)
    if not math.isfinite(coeffs[n]):
        raise ValueError(f"n_terms = {n_terms} takes a series coefficient beyond the double range")
    inv = 1.0 / np.asarray([y])  # the first n terms by Horner's rule in 1/y^2
    value = complex((inv * _horner(coeffs[:n], inv * inv))[0])
    bound = abs(coeffs[n]) * (1.0 / abs(y)) ** (2 * n + 1)  # underflows where |y|^(2n+1) would overflow
    return value, bound
