"""Faddeeva and Moshinsky functions over the full complex plane.

The transient kernel is the Moshinsky function M(y) = w(iy)/2 built from
the Faddeeva function w(z) = exp(-z^2) erfc(-iz).  The direct evaluation is
accurate for Re(y) >= 0 (i.e. iy in the upper half plane); elsewhere M is
obtained from the reflection

    M(y) = exp(y^2) - M(-y),

whose exponential exceeds the double range once Re(y^2) passes ~709.  One
vectorized kernel evaluates both branches; a reflected value is formed as
mantissa * exp(s) with s = max(Re y^2, 0), and ``moshinsky_m(y, scaled=True)``
returns that pair instead of multiplying it out.  The pole sum sends only
direct arguments (Re y > 0), so only the plain value enters the dynamics,
and the kernel takes an array with no reflected point in one ``wofz`` call,
with no masks and no scale; any other array goes through the masks.

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
1.5 in r: one ray there is within 1.1e-14 of a 30-digit erfc, as ``wofz``
itself is at the same points.

Momentum arguments follow

    y_q = -exp(-i pi/4) sqrt(m / 2 hbar) (hbar q / m) sqrt(t)

with q one of +-k, +-k_n, +-k_n*; on resonance the same arguments depend
only on the sharpness ratio R_n and the time in lifetime units.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .units import PhysicalConstants

EXP_MINUS_IPI4 = cmath.exp(-0.25j * cmath.pi)

_SQRT_PI = math.sqrt(math.pi)


class MoshinskyOverflowError(OverflowError):
    """Unscaled output would exceed the floating-point range.

    The scaled pair from ``moshinsky_m(y, scaled=True)`` is always available.
    """


def _unwrap(y):
    return y.y if isinstance(y, MoshinskyArgument) else y


def _moshinsky_m_grid(y, scaled: bool = False):
    """Vectorized M(y) = w(iy)/2 over the full complex plane.

    Re(y) >= 0 is evaluated directly; elsewhere the reflection
    M(y) = exp(y^2) - M(-y) is formed as mantissa * exp(s) with
    s = max(Re y^2, 0).  ``scaled`` returns the (mantissa, log_scale) pair,
    which cannot overflow; the plain value multiplies it out and raises
    ``MoshinskyOverflowError`` past the double range.  An array with no
    reflected point, such as every argument the pole sum sends, takes one
    ``wofz`` call with no masks and no scale.
    """
    from scipy.special import wofz  # imported on the first kernel call, not by ``rtbuildup poles``

    y = np.asarray(y, dtype=complex)
    if y.real.min(initial=0.0) >= 0.0:
        value = 0.5 * wofz(1j * y)
        return (value, np.zeros(y.shape)) if scaled else value
    mantissa = np.empty_like(y)
    log_scale = np.zeros(y.shape)
    direct = y.real >= 0.0
    mantissa[direct] = 0.5 * wofz(1j * y[direct])
    y_refl = y[~direct]
    yy = y_refl * y_refl
    s = np.maximum(yy.real, 0.0)
    mantissa[~direct] = np.exp(yy - s) - 0.5 * wofz(-1j * y_refl) * np.exp(-s)
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
    result = _moshinsky_m_grid(_unwrap(y), scaled)
    if np.ndim(y) == 0:
        if scaled:
            return complex(result[0]), float(result[1])
        return complex(result)
    return result


def faddeeva(z):
    """Faddeeva function w(z) = exp(-z^2) erfc(-iz) = 2 M(-iz).

    Relative accuracy is ~1e-14 in the upper half plane; the lower half
    plane goes through the reflection and raises ``MoshinskyOverflowError``
    where the value exceeds the double range.
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
direct-branch ray, in any direction the pole sum makes, as closely as
``wofz`` evaluates it.  A reflected ray's own M(y) would need more than 32
nodes on sharp poles, whose exp(y^2) turns by up to ~35 radians across a
piece, so the pole sum adds that factor apart.
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


def _series_sum(y: np.ndarray, n: int) -> np.ndarray:
    """The first n terms of the asymptotic series at every y, by Horner's rule in 1/y^2."""
    inv = 1.0 / y
    return inv * _horner(_series_coefficients(n), inv * inv)


def moshinsky_asymptotic(y, n_terms: int = 3) -> tuple[complex, float]:
    """Partial sum of the large-argument expansion plus a truncation bound.

    ``n_terms`` counts powers 1/y .. 1/y^n_terms, of which the even ones
    vanish.  Valid for -pi/2 < arg(y) < pi/2 and |y| of at least ``Y_FAR``; the
    error estimate is the magnitude of the first omitted nonzero term.
    """
    y = complex(_unwrap(y))
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    phase = cmath.phase(y)
    if not (-0.5 * math.pi < phase < 0.5 * math.pi):
        raise ValueError(f"arg(y) = {phase:.3f} outside the validity sector (-pi/2, pi/2)")
    if abs(y) < Y_FAR:
        raise ValueError(f"|y| = {abs(y):.3f} below the asymptotic threshold {Y_FAR}")
    n = (n_terms + 1) // 2
    value = complex(_series_sum(np.asarray([y]), n)[0])
    bound = abs(_series_coefficients(n + 1)[n]) / abs(y) ** (2 * n + 1)
    return value, bound


@dataclass(frozen=True)
class MoshinskyArgument:
    """Dimensionless argument y_q of M(0, q; t)."""

    y: complex

    @classmethod
    def from_momentum(
        cls, q: complex, t_fs: float, constants: PhysicalConstants
    ) -> "MoshinskyArgument":
        """Physical construction from a (complex) momentum and a time."""
        if t_fs < 0.0:
            raise ValueError("time must be non-negative")
        root = math.sqrt(constants.hbar2_over_2m * t_fs / constants.hbar)
        return cls(-EXP_MINUS_IPI4 * complex(q) * root)

    @classmethod
    def from_lifetime_units(cls, r_ratio: float, tau: float, kind: str) -> "MoshinskyArgument":
        """On-resonance construction from the sharpness ratio and tau.

        ``kind`` selects q: '+k', '-k', '+k_n', '-k_n', '+k_n*', '-k_n*'.
        """
        if tau < 0.0:
            raise ValueError("tau must be non-negative")
        shifts = {"k": 0.0, "k_n": -0.5j, "k_n*": 0.5j}
        if len(kind) < 2 or kind[0] not in "+-" or kind[1:] not in shifts:
            raise ValueError(f"unknown argument kind {kind!r}")
        sign = -1.0 if kind[0] == "+" else 1.0
        return cls(sign * EXP_MINUS_IPI4 * cmath.sqrt((r_ratio + shifts[kind[1:]]) * tau))
