"""Resonance poles in the fourth quadrant of the complex k plane.

A resonance is a zero of the transfer-matrix entry m22(k), the denominator
of t(k).  m22 is analytic in k away from k = 0 (the segment propagators are
even in the local wavevectors), so Newton iteration with a finite-difference
derivative converges quadratically from transmission-peak seeds, and the
argument principle on a rectangle gives an independent completeness count.

The associated Gamow eigenfunction u_n solves the stationary equation at the
complex energy E_n = hbar^2 k_n^2 / 2m with purely outgoing boundary
conditions and is normalized by the contour-regularized rule

    integral_0^L u_n^2 dx + i [u_n^2(0) + u_n^2(L)] / (2 k_n) = 1,

whose integral is exact: inside each segment u_n is a sum of two complex
exponentials, so its square integrates in closed form.  This is the
convention under which the stationary wave near a sharp resonance
collapses to the one-term expression 2ik u_n(0) u_n(x) / (k^2 - k_n^2).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field

import numpy as np

from .profile import PotentialProfile
from .scattering import _PiecewiseWave, _transfer_entries, transmission_scan


class PoleConvergenceError(RuntimeError):
    """Newton refinement failed to converge to a pole."""


class WindingMismatchError(RuntimeError):
    """Argument-principle count disagrees with the converged pole set."""


class GamowResidualError(RuntimeError):
    """Outgoing-boundary residual too large: the momentum is not a pole."""


def pole_function(profile: PotentialProfile, k: complex) -> complex:
    """m22(k), whose fourth-quadrant zeros are the resonance poles."""
    return complex(_transfer_entries(profile, complex(k))[3])


def refine_pole(
    profile: PotentialProfile,
    k_seed: complex,
    *,
    tol: float = 1e-12,
    max_iter: int = 100,
) -> complex:
    """Newton iteration on m22(k) from a seed momentum.

    The derivative is a central difference; m22 is analytic so the step is
    accurate to far more digits than Newton needs.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    k = complex(k_seed)
    for _ in range(max_iter):
        f = pole_function(profile, k)
        h = 1e-6 * max(abs(k), 1e-4)
        df = (pole_function(profile, k + h) - pole_function(profile, k - h)) / (2.0 * h)
        if df == 0.0:
            raise PoleConvergenceError(f"vanishing derivative at k = {k}")
        step = f / df
        limit = 0.2 * max(abs(k), 1e-4)
        if abs(step) > limit:
            step *= limit / abs(step)
        k -= step
        if abs(step) < tol:
            return k
    raise PoleConvergenceError(
        f"no convergence from seed {k_seed} after {max_iter} iterations (last step {abs(step):.2e})"
    )


def winding_number(
    profile: PotentialProfile,
    re_range: tuple[float, float],
    im_range: tuple[float, float],
    *,
    samples_per_edge: int = 128,
    max_refinements: int = 60,
) -> int:
    """Number of zeros of m22 inside a rectangle, by phase marching.

    Edges are subdivided until the phase change between neighbouring samples
    is below pi/2, which pins the continuous argument along the contour.
    """
    re_lo, re_hi = re_range
    im_lo, im_hi = im_range
    corners = [
        complex(re_lo, im_lo),
        complex(re_hi, im_lo),
        complex(re_hi, im_hi),
        complex(re_lo, im_hi),
        complex(re_lo, im_lo),
    ]
    total = 0.0
    for a, b in zip(corners[:-1], corners[1:]):
        ts = np.linspace(0.0, 1.0, samples_per_edge + 1)
        pts = [a + (b - a) * t for t in ts]
        vals = [pole_function(profile, p) for p in pts]
        i = 0
        refinements = 0
        while i < len(pts) - 1:
            dphi = cmath.phase(vals[i + 1] / vals[i])
            if abs(dphi) > 0.5 * np.pi:
                mid = 0.5 * (pts[i] + pts[i + 1])
                pts.insert(i + 1, mid)
                vals.insert(i + 1, pole_function(profile, mid))
                refinements += 1
                if refinements > max_refinements * samples_per_edge:
                    raise WindingMismatchError("contour refinement exhausted (zero on the contour?)")
                continue
            total += dphi
            i += 1
    count = total / (2.0 * np.pi)
    if abs(count - round(count)) > 0.1:
        raise WindingMismatchError(f"non-integer winding number {count:.3f}")
    return int(round(count))


@dataclass(frozen=True)
class ResonantState:
    """Pole momentum, resonance parameters, and the normalized Gamow function."""

    k: complex
    energy_ev: complex
    profile: PotentialProfile = field(repr=False)
    u0: complex = field(repr=False, default=0j)
    u_end: complex = field(repr=False, default=0j)
    _wave: _PiecewiseWave = field(repr=False, compare=False, default=None)

    @property
    def eps_ev(self) -> float:
        return self.energy_ev.real

    @property
    def gamma_ev(self) -> float:
        return -2.0 * self.energy_ev.imag

    @property
    def eps_mev(self) -> float:
        return 1e3 * self.eps_ev

    @property
    def gamma_mev(self) -> float:
        return 1e3 * self.gamma_ev

    @property
    def lifetime_fs(self) -> float:
        """tau_n = hbar / Gamma_n."""
        return self.profile.constants.hbar / self.gamma_ev

    @property
    def r_ratio(self) -> float:
        """Sharpness R_n = eps_n / Gamma_n."""
        return self.eps_ev / self.gamma_ev

    def u(self, x):
        """Normalized Gamow eigenfunction at x in [0, L]."""
        return self._wave.value(x)

    def u_derivative(self, x):
        return self._wave.derivative(x)


def gamow_state(
    profile: PotentialProfile,
    k_n: complex,
    *,
    bc_tol: float = 1e-8,
) -> ResonantState:
    """Normalized Gamow eigenfunction for a verified pole momentum.

    Integrates (psi, psi') from x = 0 with u(0) = 1, u'(0) = -i k_n u(0) and
    checks the outgoing condition u'(L) = +i k_n u(L); failure means k_n is
    not actually a pole.  The normalization integral of u^2 is exact, a sum
    of closed-form segment integrals.
    """
    k_n = complex(k_n)
    if not (k_n.real > 0.0 and k_n.imag < 0.0):
        raise GamowResidualError(f"pole must lie in the fourth quadrant, got {k_n}")
    wave = _PiecewiseWave(profile, k_n, 1.0, -1j * k_n)
    u_l, du_l = wave.end_values
    residual = abs(du_l - 1j * k_n * u_l) / (abs(k_n) * abs(u_l))
    if residual > bc_tol:
        raise GamowResidualError(
            f"outgoing-boundary residual {residual:.2e} exceeds {bc_tol:.1e}; not a pole"
        )

    norm_sq = wave.square_integral()
    norm_sq += 1j * (1.0 + u_l * u_l) / (2.0 * k_n)  # u(0) = 1 before scaling
    scale = 1.0 / cmath.sqrt(norm_sq)

    wave._values = wave._values * scale
    wave._derivs = wave._derivs * scale
    u0 = complex(wave._values[0])
    u_end = complex(wave._values[-1])
    energy = profile.constants.energy_ev(k_n)
    return ResonantState(k_n, energy, profile, u0, u_end, wave)


def find_poles(
    profile: PotentialProfile,
    e_max_ev: float,
    max_poles: int | None = None,
    *,
    e_min_ev: float = 1e-3,
    points_per_decade: int = 2000,
    newton_tol: float = 1e-12,
    max_iter: int = 100,
    winding_check: bool = True,
) -> list[ResonantState]:
    """Poles with eps_n <= e_max_ev, sorted by resonance energy.

    Seeds come from refined transmission maxima; each is pushed into the
    fourth quadrant by Newton iteration.  Completeness is cross-checked by
    the argument-principle count over the search rectangle
    Re k in (0, k(e_max)], Im k in [-k(e_max), 0).
    """
    if not e_max_ev > 0.0:
        raise ValueError("e_max must be positive")
    c2 = profile.constants.hbar2_over_2m
    scan = transmission_scan(profile, e_min_ev, e_max_ev, points_per_decade=points_per_decade)

    found: list[complex] = []
    failures: list[str] = []
    for peak in scan.peaks:
        pole = None
        for factor in (1.0, 0.3, 3.0, 10.0):
            seed = cmath.sqrt((peak.energy_ev - 0.5j * factor * peak.gamma_estimate_ev) / c2)
            try:
                candidate = refine_pole(profile, seed, tol=newton_tol, max_iter=max_iter)
            except PoleConvergenceError as exc:
                failures.append(str(exc))
                continue
            if candidate.real > 0.0 and candidate.imag < 0.0:
                pole = candidate
                break
        if pole is None:
            continue
        if all(abs(pole - other) > max(1e-8, 1e-9 * abs(pole)) for other in found):
            found.append(pole)

    # pad the rectangle so corners cannot land exactly on a barrier-top
    # wavevector (kappa = 0 there) or on a pole
    k_hi = profile.constants.wavevector(e_max_ev) * (1.0 + 3e-9)
    k_lo = 0.5 * profile.constants.wavevector(e_min_ev)

    def in_rectangle(ks):
        return [k for k in ks if k_lo <= k.real <= k_hi and -k_hi <= k.imag < 0.0]

    in_rect = in_rectangle(found)
    if winding_check:
        count = winding_number(profile, (k_lo, k_hi), (-k_hi, 0.0))
        if count > len(in_rect):
            # a pole without a clean transmission maximum (broad, above the
            # barrier top, or riding a monotone background); localize the
            # deficit by bisecting the rectangle and seed Newton there
            recovered = _recover_poles(
                profile, (k_lo, k_hi), (-k_hi, 0.0), in_rect,
                newton_tol=newton_tol, max_iter=max_iter,
            )
            for k in recovered:
                if all(abs(k - other) > max(1e-8, 1e-9 * abs(k)) for other in found):
                    found.append(k)
            in_rect = in_rectangle(found)
        if count != len(in_rect):
            raise WindingMismatchError(
                f"winding count {count} != {len(in_rect)} converged poles "
                f"(missed or spurious pole; {len(failures)} seed(s) failed Newton)"
            )

    states = [gamow_state(profile, k) for k in in_rect]
    states = [s for s in states if s.eps_ev <= e_max_ev]
    states.sort(key=lambda s: s.eps_ev)
    if max_poles is not None:
        states = states[:max_poles]
    return states


def _recover_poles(
    profile: PotentialProfile,
    re_range: tuple[float, float],
    im_range: tuple[float, float],
    known: list[complex],
    *,
    newton_tol: float,
    max_iter: int,
    max_depth: int = 24,
) -> list[complex]:
    """Localize poles the seed scan missed, by winding-count bisection in Re k.

    Each sub-rectangle whose zero count exceeds the known poles inside it is
    split until it is narrow, then Newton starts from a ladder of depths
    below its center.
    """
    recovered: list[complex] = []

    def zeros_known(re_lo, re_hi):
        ks = known + recovered
        return sum(1 for k in ks if re_lo <= k.real <= re_hi)

    stack = [(re_range[0], re_range[1], 0)]
    while stack:
        re_lo, re_hi, depth = stack.pop()
        count = winding_number(profile, (re_lo, re_hi), im_range)
        deficit = count - zeros_known(re_lo, re_hi)
        if deficit <= 0:
            continue
        width = re_hi - re_lo
        if depth < max_depth and width > 1e-5 * re_range[1]:
            # off-center split so the shared edge cannot sit on a pole of a
            # symmetric configuration
            mid = re_lo + 0.5013872 * width
            stack.append((re_lo, mid, depth + 1))
            stack.append((mid, re_hi, depth + 1))
            continue
        center = 0.5 * (re_lo + re_hi)
        for im_seed in np.geomspace(1e-6 * abs(im_range[0]), 0.9 * abs(im_range[0]), 12):
            try:
                candidate = refine_pole(
                    profile, complex(center, -im_seed), tol=newton_tol, max_iter=max_iter
                )
            except PoleConvergenceError:
                continue
            fresh = all(
                abs(candidate - other) > max(1e-8, 1e-9 * abs(candidate))
                for other in known + recovered
            )
            if fresh and re_lo <= candidate.real <= re_hi and candidate.imag < 0.0:
                recovered.append(candidate)
                if deficit > 1:
                    stack.append((re_lo, re_hi, depth))
                break
    return recovered


def one_term_phi(state: ResonantState, energy_ev: float, x) -> complex:
    """Sharp-resonance one-term approximation 2ik u_n(0) u_n(x) / (k^2 - k_n^2).

    Intended for R_n >> 1 and E near eps_n; accuracy improves with R_n.
    """
    k = state.profile.constants.wavevector(energy_ev)
    return 2j * k * state.u0 * state.u(x) / (k * k - state.k * state.k)
