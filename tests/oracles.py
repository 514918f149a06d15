"""One reference (psi, psi') march for the test oracles, coded apart from rtbuildup.

Every function takes the math library ``lib``: mpmath, at the caller's
``mpmath.workdps``, or numpy in double precision, where k is complex and may
be an array.  A profile is read as data only: its ``segments``,
``boundaries`` and ``constants.hbar2_over_2m``.
"""

import mpmath
import numpy as np


def _num(lib, value):
    return lib.mpc(value) if lib is mpmath else value  # mpmath takes a float exactly


def _kappas(profile, k, lib):
    c2 = _num(lib, profile.constants.hbar2_over_2m)
    return [lib.sqrt(k * k - _num(lib, height) / c2) for _, height in profile.segments]


def _step(q, s, psi, dpsi, lib):
    cos, sin = lib.cos(q * s), lib.sin(q * s)
    return cos * psi + sin / q * dpsi, -q * sin * psi + cos * dpsi


def march(profile, k, psi0, dpsi0, lib):
    """(psi, psi') at x = 0 and at the right edge of every segment, from (psi0, dpsi0) at x = 0."""
    edges = [(psi0, dpsi0)]
    for (width, _), q in zip(profile.segments, _kappas(profile, k, lib)):
        edges.append(_step(q, _num(lib, width), *edges[-1], lib))
    return edges


def _at(profile, k, edges, xs, lib):
    """psi at each float position of ``xs``, stepped from the left edge of its segment."""
    qs, bounds = _kappas(profile, k, lib), profile.boundaries
    js = [min(int(np.searchsorted(bounds, x, side="right")), len(qs)) - 1 for x in xs]
    return [_step(qs[j], _num(lib, x) - _num(lib, float(bounds[j])), *edges[j], lib)[0] for x, j in zip(xs, js)]


def _b(k, edge):
    """The amplitude of e^{-ik(x - L)} in the wave whose (psi, psi') at x = L is ``edge``."""
    return (edge[0] - edge[1] / (1j * k)) / 2


def m22(profile, k, lib):
    """m22(k), the b at x = L of the wave (1, -ik) at x = 0; its zeros are the poles."""
    k = _num(lib, k)
    return _b(k, march(profile, k, 1, -1j * k, lib)[-1])


def newton_step(profile, k, h, lib):
    """|m22 / m22'| at k, with m22' a central difference of step h."""
    k, h = _num(lib, k), _num(lib, h)
    return abs(m22(profile, k, lib) / ((m22(profile, k + h, lib) - m22(profile, k - h, lib)) / (2 * h)))


def scattering(profile, k, xs, lib):
    """t, r and [phi(x) for x in xs], phi being the wave (1 + r, ik(1 - r)) at x = 0."""
    k = _num(lib, k)
    t = 1 / m22(profile, k, lib)
    r = -t * _b(k, march(profile, k, 1, 1j * k, lib)[-1])
    return t, r, _at(profile, k, march(profile, k, 1 + r, 1j * k * (1 - r), lib), xs, lib)


def gamow(profile, k, xs, lib):
    """(u0, u_end, [u(x) for x in xs]) at the pole k, scaled so that the integral
    of u^2 over [0, L] plus i (u0^2 + u_end^2) / 2k is 1."""
    k = _num(lib, k)
    edges = march(profile, k, 1, -1j * k, lib)
    norm = 1j * (1 + edges[-1][0] ** 2) / (2 * k)
    for (u, du), q, (width, _) in zip(edges, _kappas(profile, k, lib), profile.segments):
        a, b, w = (u + du / (1j * q)) / 2, (u - du / (1j * q)) / 2, _num(lib, width)
        norm += (a * a * (lib.exp(2j * q * w) - 1) - b * b * (lib.exp(-2j * q * w) - 1)) / (2j * q) + 2 * a * b * w
    scale = 1 / lib.sqrt(norm)
    return scale, scale * edges[-1][0], [scale * u for u in _at(profile, k, edges, xs, lib)]
