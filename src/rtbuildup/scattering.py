"""Scattering states of a piecewise-constant profile via transfer matrices.

Amplitude convention: state vectors are (right-moving, left-moving)
coefficients.  On the left of the structure they multiply e^{+ikx}, e^{-ikx}
(edge at x = 0); on the right they multiply e^{+ik(x-L)}, e^{-ik(x-L)} (edge
at x = L).  With edge-referenced bases the transfer matrix of a concatenated
profile is the product (matrix of right part) @ (matrix of left part), and
the determinant is exactly 1.

Every wave is carried in the same form everywhere: inside segment j it is
a e^{i kappa_j s} + b e^{-i kappa_j s}, s = x - x_j, with kappa_j =
sqrt(k^2 - V_j / (hbar^2/2m)), and kappa_j = k exactly where V_j = 0.
``_march`` carries the amplitudes (a, b) from x = 0 across every interface:
from a region of wavevector p and width w into one of wavevector q,

    a' = ((q + p) e^{ipw} a + (q - p) e^{-ipw} b) / 2q,
    b' = ((q - p) e^{ipw} a + (q + p) e^{-ipw} b) / 2q,

so an interface between equal heights reflects exactly nothing (q - p is
exactly 0), and a decaying and a growing component never meet inside a
segment: an evanescent layer costs no digits however wide it is, and m22
keeps them deep in the fourth quadrant, where a (psi, psi') march cancels
by e^(2 |Im kappa| w) (Ko & Inkson, Phys. Rev. B 38, 9945 (1988)).  m22 is
unchanged under kappa_j -> -kappa_j of any segment (the segment's two waves
swap roles), so it is analytic in k away from k = 0 and the choice of
square root is immaterial: pole searches continue t(k) into the fourth
quadrant with no branch-cut bookkeeping.  The price is paid near a segment
height: as kappa_j w_j -> 0 the two waves of that segment coincide and the
amplitudes on either side of it cancel, so the relative error grows as
about eps / |kappa_j w_j|: up to 5e-12 at k = (1 +- 1e-9) k(V_j) on the
benchmark structures.  ``_march`` therefore marches a segment whose
|kappa_j| w_j falls below ``_KAPPA_W_FLOOR`` = 6e-6 with kappa_j =
``_KAPPA_W_FLOOR`` / w_j: as if its height were lower by about
c2 (6e-6 / w_j)^2.  That moves t by about (6e-6)^2 / (w_j k), not by
(kappa_j w_j)^2: on a single (0.5 A, 0.2 eV) barrier at 0.2 eV, t and r are
6.1e-10 off a 40-digit march (ROADMAP item 14 replaces the floor).  Every
k != 0 is marched as it is, on a height or one rounding off it; there phi
stays within 2e-10 of a 50-digit march on both benchmark structures.

Every march carries one wave, e^{-ikx} left of x = 0: (a, b) = (0, 1).
It reads all it needs of the profile on each call, and the module keeps no
state between calls.  ``_m22`` is its b at x = L; the pole search and
``bound_state_energies`` evaluate m22 with it.  ``stationary_state``
marches it on the mirrored profile, from the transmitted side.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .profile import PotentialProfile


_KAPPA_W_FLOOR = 6e-6  # about eps^(1/3): where eps / |kappa w| meets (kappa w)^2


def _march(profile: PotentialProfile, k):
    """(kappa, a, b): the wave e^{-ikx} left of x = 0, (a, b) = (0, 1), marched across the segments.

    Vectorized over k.  Row j of kappa, a and b is segment j, with a and b
    at its left edge; the last row is the region right of L, where kappa = k
    and a, b multiply e^{+-ik(x-L)}, so there a = m12 and b = m22.  Each
    interface's (q +- p) / 2q and each segment's phase e^{i kappa w} are
    taken for all of them at once; the loop only carries the amplitudes.
    The rows with a height, their heights over c2, their floors and i w are
    formed on each call: 4 us of a one-momentum call's 34 us, lost in the
    noise at 513 momenta (125 us) and in every benchmark workload.
    """
    k = np.asarray(k, dtype=complex)
    lifted = np.flatnonzero(profile.heights)
    regions = np.empty((profile.heights.size + 2,) + k.shape, dtype=complex)  # k, kappa_0, ..., kappa_{n-1}, k
    regions[:] = k
    shape = (-1,) + (1,) * k.ndim
    kappa = np.sqrt(k**2 - (profile.heights[lifted] / profile.hbar2_over_2m).reshape(shape))
    floor = (_KAPPA_W_FLOOR / profile.widths[lifted]).reshape(shape)
    np.copyto(kappa, floor, where=abs(kappa) < floor)
    regions[1 + lifted] = kappa
    p, q = regions[:-1], regions[1:]
    half = 0.5 / q
    same, cross = (q + p) * half, (q - p) * half
    grows = np.exp((1j * profile.widths).reshape(shape) * regions[1:-1])  # e^{i kappa w} across each segment
    a, b = cross[0], same[0]  # x = 0: no phase yet
    rows_a, rows_b = [a], [b]
    for grow, c11, c12 in zip(grows, same[1:], cross[1:]):
        a, b = a * grow, b / grow
        a, b = c11 * a + c12 * b, c12 * a + c11 * b
        rows_a.append(a)
        rows_b.append(b)
    return regions[1:], np.array(rows_a), np.array(rows_b)


def _m22(profile: PotentialProfile, k):
    """m22(k), vectorized over k != 0: b at x = L of ``_march``."""
    return _march(profile, k)[2][-1]


# a placeholder: only the benchmark's tracer binds this name (perfbench/spans.BINDINGS),
# and ROADMAP item 17 deletes it with those bindings
_transfer_entries = None


class _PiecewiseWave:
    """Wave a e^{i kappa s} + b e^{-i kappa s}, s = x - x_j in segment j, on [0, L].

    ``kappa``, ``a`` and ``b`` hold one entry per segment: the segment rows
    of a ``_march``.  Shared evaluator for scattering states (real E) and
    resonant states (complex E).
    """

    def __init__(self, profile: PotentialProfile, kappa, a, b):
        self.profile = profile
        self.kappa = kappa
        self.a = a
        self.b = b

    def value(self, x):
        """a e^{i kappa s} + b e^{-i kappa s} at x, from its segment's amplitudes."""
        edges = self.profile.boundaries
        x = np.asarray(x, dtype=float)
        outside = ~((x >= edges[0]) & (x <= edges[-1]))  # NaN fails both
        if outside.any():
            raise ValueError(f"position {x[outside].flat[0]} outside [0, {edges[-1]}] A")
        idx = np.clip(np.searchsorted(edges, x, side="right") - 1, 0, len(self.kappa) - 1)
        grow = np.exp(1j * self.kappa[idx] * (x - edges[idx]))
        out = self.a[idx] * grow + self.b[idx] / grow
        return complex(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class StationaryState:
    """Scattering state at real energy, unit incidence from the left.

    Normalization: the incident wave is e^{ikx} for x < 0.
    """

    energy_ev: float
    k: float
    transmission_amplitude: complex
    reflection_amplitude: complex
    _wave: _PiecewiseWave = field(repr=False, compare=False)

    def phi(self, x):
        """phi(x, k) for x in [0, L]; accepts scalars or arrays."""
        return self._wave.value(x)


def stationary_state(profile: PotentialProfile, energy_ev: float) -> StationaryState:
    """Scattering solution at real 0 < E < inf, with k = ``wavevector(E)``, from one ``_march``.

    In the mirrored profile, x' = L - x, the transmitted wave t e^{ik(x-L)}
    is t e^{-ikx'}: t times the wave of ``_march``, which reads (a', b') =
    (r/t, 1/t) at x' = L.  Segment j is the mirror's segment n-1-j, whose
    amplitudes t (a', b') sit at x_{j+1}; at x_j they are
    A = t b' / e^{i kappa w} and B = t a' e^{i kappa w}.  The march follows
    the physical wave as it grows through every barrier, so nothing cancels
    in phi.  Near a segment height ``_march`` floors |kappa_j| w_j (see the
    module docstring).
    """
    k = profile.wavevector(energy_ev)
    mirror = PotentialProfile(profile.segments[::-1], profile.mass_factor)
    kappa, a, b = _march(mirror, complex(k))
    t = 1.0 / complex(b[-1])
    kappa = kappa[-2::-1]
    grow = np.exp(1j * profile.widths * kappa)
    wave = _PiecewiseWave(profile, kappa, t * b[-2::-1] / grow, t * a[-2::-1] * grow)
    return StationaryState(float(energy_ev), k, t, t * complex(a[-1]), wave)


def stationary_wave(profile: PotentialProfile, energy_ev: float, x) -> complex:
    """phi(x, k) at real energy for 0 <= x <= L."""
    return stationary_state(profile, energy_ev).phi(x)


def bound_state_energies(profile: PotentialProfile) -> np.ndarray:
    """Bound-state energies in eV, lowest first; empty unless some height is below 0.

    A bound state is a zero of m22 at k = iq with q > 0, where m22 is real.
    Its energy -c2 q^2 lies above the lowest segment height, so every sign
    change of m22(iq) on a grid over 0 < q <= sqrt(-min V / c2) is one.  All
    brackets are bisected in lockstep, one ``_m22`` call per round, until
    each is at most 1e-15 of its lower end wide.  A grid point where some
    kappa_j = 0 needs no care: ``_march`` floors |kappa_j| w_j.
    """
    c2 = profile.hbar2_over_2m
    q_max = float(np.sqrt(max(-np.min(profile.heights), 0.0) / c2))
    if q_max == 0.0:
        return np.empty(0)
    n = max(512, int(64 * q_max * profile.total_length))
    # a geometric head below the uniform grid catches a state bound near E = 0
    q = q_max * np.concatenate([np.geomspace(1e-9, 1.0 / n, 40, endpoint=False), np.arange(1, n + 1) / n])

    def negative(q):
        return np.signbit(_m22(profile, 1j * q).real)

    sign = negative(q)
    flips = np.flatnonzero(sign[1:] != sign[:-1])[::-1]
    lo, hi, lo_sign = q[flips], q[flips + 1], sign[flips]
    while True:
        active = np.flatnonzero(hi - lo > 1e-15 * lo)
        if active.size == 0:
            return -c2 * (0.5 * (lo + hi)) ** 2
        mid = 0.5 * (lo[active] + hi[active])
        same = negative(mid) == lo_sign[active]
        lo[active[same]] = mid[same]
        hi[active[~same]] = mid[~same]
