"""Scattering states of a piecewise-constant profile via transfer matrices.

Amplitude convention: state vectors are (right-moving, left-moving)
coefficients.  On the left of the structure they multiply e^{+ikx}, e^{-ikx}
(edge at x = 0); on the right they multiply e^{+ik(x-L)}, e^{-ik(x-L)} (edge
at x = L).  With edge-referenced bases the transfer matrix of a concatenated
profile is the product (matrix of right part) @ (matrix of left part), and
the determinant is exactly 1.

Internally each segment is crossed with the (psi, psi') propagator

    [[cos(kappa w),        sin(kappa w)/kappa],
     [-kappa sin(kappa w), cos(kappa w)      ]]

whose entries are even in kappa, hence analytic in k everywhere except k = 0.
Pole searches can therefore continue t(k) into the fourth quadrant without
branch-cut bookkeeping; the principal square root used for kappa is
immaterial.

Every evaluation at complex k goes through ``_transfer_entries``, which is
vectorized over k.  The transmission scan needs real k only, where every
propagator entry is real: ``_transmission_grid`` multiplies them in float64,
taking the oscillating or the evanescent branch each segment needs at each
point.  Each peak the scan reports is the closed-form vertex of a parabola
through three grid points, which is all the pole search needs from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

from .profile import PotentialProfile


class ZeroWavevectorError(ArithmeticError):
    """A local wavevector is exactly zero (E equal to a segment height).

    Measure-zero event; callers perturb k and retry.
    """


def _local_wavevectors(profile: PotentialProfile, k):
    """kappa_j = sqrt(k^2 - V_j / (hbar^2/2m)) for every segment.

    ``k`` may be a complex scalar or ndarray; the result has one leading
    axis per segment.
    """
    c2 = profile.constants.hbar2_over_2m
    k = np.asarray(k, dtype=complex)
    kappa = np.sqrt(k[np.newaxis, ...] ** 2 - (profile.heights / c2)[(...,) + (np.newaxis,) * k.ndim])
    if np.any(kappa == 0.0):
        raise ZeroWavevectorError("local wavevector is exactly zero; perturb k")
    return kappa


def _segment_propagator(kappa, width):
    """(cos kappa w, sin(kappa w)/kappa, -kappa sin kappa w): the (psi, psi') propagator.

    These are the entries p11 = p22, p12 and p21; ``width`` may be an array.
    With kappa w = a + ib, cos = cos a cosh b - i sin a sinh b and
    sin = sin a cosh b + i cos a sinh b: four real functions for both.
    """
    z = kappa * width
    sin_a, cos_a = np.sin(z.real), np.cos(z.real)
    sinh_b, cosh_b = np.sinh(z.imag), np.cosh(z.imag)
    c = cos_a * cosh_b - 1j * (sin_a * sinh_b)
    s = sin_a * cosh_b + 1j * (cos_a * sinh_b)
    return c, s / kappa, -kappa * s


def _wave_matrix(profile: PotentialProfile, k):
    """Entries (w11, w12, w21, w22) of the (psi, psi') propagator across [0, L]."""
    kappa = _local_wavevectors(profile, k)
    widths = profile.widths
    c, w12, w21 = _segment_propagator(kappa[0], widths[0])
    w11 = w22 = c
    for j in range(1, widths.size):
        c, p12, p21 = _segment_propagator(kappa[j], widths[j])
        w11, w12, w21, w22 = (
            c * w11 + p12 * w21,
            c * w12 + p12 * w22,
            p21 * w11 + c * w21,
            p21 * w12 + c * w22,
        )
    return w11, w12, w21, w22


def _transfer_entries(profile: PotentialProfile, k):
    """Entries (m11, m12, m21, m22) of the amplitude transfer matrix.

    Vectorized over k.  t(k) = 1 / m22, r(k) = -m21 / m22.
    """
    if np.any(np.asarray(k) == 0):
        raise ZeroWavevectorError("transfer matrix undefined at k = 0")
    w11, w12, w21, w22 = _wave_matrix(profile, k)
    ik = 1j * np.asarray(k, dtype=complex)
    a = w11 + w22
    b = w11 - w22
    m11 = 0.5 * (a + ik * w12 + w21 / ik)
    m12 = 0.5 * (b - ik * w12 + w21 / ik)
    m21 = 0.5 * (b + ik * w12 - w21 / ik)
    m22 = 0.5 * (a - ik * w12 - w21 / ik)
    return m11, m12, m21, m22


def _march(profile: PotentialProfile, k, psi0, dpsi0):
    """(kappa, psi, psi') with (psi, psi') marched from x = 0 across the segments.

    Vectorized over k, with ``psi0`` and ``dpsi0`` of its shape: kappa has
    one leading row per segment, psi and psi' one per segment edge.  Row j of
    psi and psi' is the pair at the left edge of segment j; the last row is
    the pair at x = L.
    """
    kappa = _local_wavevectors(profile, k)
    values, derivs = [np.asarray(psi0, dtype=complex)], [np.asarray(dpsi0, dtype=complex)]
    for kappa_j, width in zip(kappa, profile.widths.tolist()):
        c, p12, p21 = _segment_propagator(kappa_j, width)
        v, d = values[-1], derivs[-1]
        values.append(c * v + p12 * d)
        derivs.append(p21 * v + c * d)
    return kappa, np.stack(values), np.stack(derivs)


class _PiecewiseWave:
    """Wave psi(x) on [0, L] from the (psi, psi') pairs ``_march`` leaves at the segment edges.

    Shared evaluator for scattering states (real E) and resonant states
    (complex E); cheap closed-form propagation inside each segment.
    """

    def __init__(self, profile: PotentialProfile, kappa, values, derivs):
        self.profile = profile
        self._kappa = kappa
        self._values = values
        self._derivs = derivs

    def _segment_index(self, x):
        edges = self.profile.boundaries
        x = np.asarray(x, dtype=float)
        if np.any(x < edges[0]) or np.any(x > edges[-1]):
            raise ValueError(f"position outside [0, {edges[-1]}] A")
        return np.clip(np.searchsorted(edges, x, side="right") - 1, 0, len(self._kappa) - 1)

    def _propagate(self, x):
        """(psi, psi') at x from the pair stored at the left edge of its segment."""
        idx = self._segment_index(x)
        s = np.asarray(x, dtype=float) - self.profile.boundaries[idx]
        c, p12, p21 = _segment_propagator(self._kappa[idx], s)
        v, d = self._values[idx], self._derivs[idx]
        return c * v + p12 * d, p21 * v + c * d

    def value(self, x):
        out = self._propagate(x)[0]
        return complex(out) if out.ndim == 0 else out

    def derivative(self, x):
        out = self._propagate(x)[1]
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

    def phi_derivative(self, x):
        return self._wave.derivative(x)


def stationary_state(profile: PotentialProfile, energy_ev: float) -> StationaryState:
    """Scattering solution at real E > 0.

    At E exactly on a segment height a local wavevector vanishes, where the
    propagator's sin(kappa w)/kappa is 0/0; k is then lowered by 1e-9 of
    itself, as ``bound_state_energies`` does with q.
    """
    if not energy_ev > 0.0:
        raise ValueError(f"energy must be positive, got {energy_ev}")
    k = profile.constants.wavevector(energy_ev)
    if np.any(k * k == profile.heights / profile.constants.hbar2_over_2m):
        k *= 1.0 - 1e-9
    _, _, m21, m22 = _transfer_entries(profile, complex(k))
    m21, m22 = complex(m21), complex(m22)
    t = 1.0 / m22
    r = -m21 / m22
    wave = _PiecewiseWave(profile, *_march(profile, complex(k), 1.0 + r, 1j * k * (1.0 - r)))
    return StationaryState(float(energy_ev), k, t, r, wave)


def stationary_wave(profile: PotentialProfile, energy_ev: float, x) -> complex:
    """phi(x, k) at real energy for 0 <= x <= L."""
    return stationary_state(profile, energy_ev).phi(x)


def bound_state_energies(profile: PotentialProfile) -> np.ndarray:
    """Bound-state energies in eV, lowest first; empty unless some height is below 0.

    A bound state is a zero of m22 at k = iq with q > 0, where m22 is real.
    Its energy -c2 q^2 lies above the lowest segment height, so every sign
    change of m22(iq) on a grid over 0 < q <= sqrt(-min V / c2) is one.  All
    brackets are bisected in lockstep, one transfer-matrix call per round,
    until each is at most 1e-15 of its lower end wide.
    """
    c2 = profile.constants.hbar2_over_2m
    q_max = float(np.sqrt(max(-np.min(profile.heights), 0.0) / c2))
    if q_max == 0.0:
        return np.empty(0)
    n = max(512, int(64 * q_max * profile.total_length))
    # a geometric head below the uniform grid catches a state bound near E = 0
    q = q_max * np.concatenate([np.geomspace(1e-9, 1.0 / n, 40, endpoint=False), np.arange(1, n + 1) / n])
    for h in profile.heights:  # keep off kappa = 0, as stationary_state does
        q[q * q == -h / c2] *= 1.0 - 1e-9

    def negative(q):
        return np.signbit(_transfer_entries(profile, 1j * q)[3].real)

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


@dataclass(frozen=True)
class PeakSeed:
    """Transmission maximum used to seed the pole search.

    ``energy_ev`` and ``transmission`` are the vertex of the parabola through
    1/|t|^2 at the grid maximum and its two neighbours.
    ``gamma_estimate_ev`` is the grid scale E[i+1] - E[i-1] there: an offset
    that puts the Newton seed below the real axis, not a measured width.
    """

    energy_ev: float
    transmission: float
    gamma_estimate_ev: float


@dataclass(frozen=True)
class ScanResult:
    energies_ev: np.ndarray
    transmission: np.ndarray
    peaks: tuple[PeakSeed, ...]


POINTS_PER_DECADE = 2000  # density of the transmission scan


def _transmission_grid(profile: PotentialProfile, energies_ev: np.ndarray) -> np.ndarray:
    """|t(E)|^2 at ascending real energies, in real arithmetic.

    For real k each segment has a real kappa^2 = k^2 - V/c2 and
    q = sqrt(|kappa^2|); its propagator entries are (cos qw, sin(qw)/q,
    -q sin qw) where kappa^2 > 0, (cosh qw, sinh(qw)/q, q sinh qw) where
    kappa^2 < 0, and the limit (1, w, 0) where kappa^2 = 0.  kappa^2 rises
    with E, so each branch is one slice of the grid.  With real entries,
    |m22|^2 = ((w11 + w22)^2 + (k w12 - w21/k)^2) / 4.
    """
    c2 = profile.constants.hbar2_over_2m
    k = np.sqrt(np.asarray(energies_ev, dtype=float) / c2)
    k2 = k * k
    if np.any(k2[1:] < k2[:-1]):
        raise ValueError("energies must be ascending")
    w11 = w12 = w21 = w22 = None
    for width, height in zip(profile.widths.tolist(), profile.heights.tolist()):
        kappa2 = k2 - height / c2
        lo, hi = np.searchsorted(kappa2, 0.0, side="left"), np.searchsorted(kappa2, 0.0, side="right")
        c, p12, p21 = np.empty(k.size), np.empty(k.size), np.empty(k.size)
        q = np.sqrt(-kappa2[:lo])
        z = q * width
        s = np.sinh(z)
        c[:lo], p12[:lo], p21[:lo] = np.cosh(z), s / q, q * s
        c[lo:hi], p12[lo:hi], p21[lo:hi] = 1.0, width, 0.0
        q = np.sqrt(kappa2[hi:])
        z = q * width
        s = np.sin(z)
        c[hi:], p12[hi:], p21[hi:] = np.cos(z), s / q, -q * s
        if w11 is None:
            w11, w12, w21, w22 = c, p12, p21, c
        else:
            w11, w12, w21, w22 = (
                c * w11 + p12 * w21,
                c * w12 + p12 * w22,
                p21 * w11 + c * w21,
                p21 * w12 + c * w22,
            )
    a = w11 + w22
    b = k * w12 - w21 / k
    return 4.0 / (a * a + b * b)


def transmission_scan(profile: PotentialProfile, e_min_ev: float, e_max_ev: float) -> ScanResult:
    """|t(E)|^2 on a log-spaced grid plus its local maxima, in one real-arithmetic pass.

    The density (``POINTS_PER_DECADE``) resolves widths down to a
    small fraction of a meV at typical resonance energies.  Near a pole
    1/|t|^2 = |m22|^2 is nearly quadratic in E, so each grid maximum reports
    the vertex of the parabola through 1/|t|^2 at E[i-1], E[i] and E[i+1],
    a closed form that lies inside (E[i-1], E[i+1]).  The peaks only seed
    Newton, which needs no more precision than that.
    """
    if not (0.0 < e_min_ev < e_max_ev):
        raise ValueError("need 0 < e_min < e_max")
    lg_min, lg_max = np.log10(e_min_ev), np.log10(e_max_ev)  # their ratio can overflow
    n_points = max(64, int(np.ceil((lg_max - lg_min) * POINTS_PER_DECADE)) + 1)
    energies = np.logspace(lg_min, lg_max, n_points)
    t2 = _transmission_grid(profile, energies)

    i = np.flatnonzero((t2[1:-1] > t2[:-2]) & (t2[1:-1] > t2[2:])) + 1
    # prominence filter: rounding noise on flat transmission produces
    # strict maxima at the 1e-16 level; genuine peaks rise far above it
    i = i[t2[i] - np.minimum(t2[i - 1], t2[i + 1]) > 1e-9 * t2[i]]
    # parabola y1 + b u + c u^2 through 1/|t|^2 at offsets u = d0, 0, d2;
    # y1 is the lowest of the three, so c > 0 and the vertex -b/2c lies
    # between the midpoints of the two grid steps
    d0, d2 = energies[i - 1] - energies[i], energies[i + 1] - energies[i]
    y1 = 1.0 / t2[i]
    s0, s2 = (1.0 / t2[i - 1] - y1) / d0, (1.0 / t2[i + 1] - y1) / d2
    c = (s0 - s2) / (d0 - d2)
    b = s0 - c * d0
    e_peak = energies[i] - 0.5 * b / c
    t_peak = 1.0 / (y1 - 0.25 * b * b / c)
    widths = energies[i + 1] - energies[i - 1]
    peaks = tuple(PeakSeed(float(e), float(t), float(w)) for e, t, w in zip(e_peak, t_peak, widths))
    return ScanResult(energies, t2, peaks)
