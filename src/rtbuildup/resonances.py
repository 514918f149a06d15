"""Resonance poles in the fourth quadrant of the complex k plane.

A resonance is a zero of the transfer-matrix entry m22(k), the denominator
of t(k).  m22 is analytic in k away from k = 0 (the segment propagators are
even in the local wavevectors), so Newton iteration with a finite-difference
derivative converges quadratically from transmission-peak seeds, and the
argument principle on a rectangle gives an independent completeness count.
The count runs on the search rectangle lifted a little above the real axis,
where |m22| >= 1 is far from zero; the contour moments that seed the poles
with no transmission peak run on the rectangle itself.  Every batch of seeds
is refined in lockstep: one transfer-matrix call per Newton round, however
many seeds there are.

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
from .scattering import _PiecewiseWave, _transfer_entries, bound_state_energies, transmission_scan


SCAN_FLOOR_EV = 1e-3  # lower end of the seed scan
NEWTON_TOL = 1e-12  # Newton stops once its step is below this, in 1/A
NEWTON_MAX_ITER = 100  # Newton rounds before a seed counts as failed
BC_TOL = 1e-8  # largest relative outgoing-boundary residual of a pole
SAMPLES_PER_EDGE = 128
MAX_REFINEMENTS = 60  # bisection budget per edge, in multiples of SAMPLES_PER_EDGE


class PoleConvergenceError(RuntimeError):
    """Newton refinement failed to converge to a pole."""


class WindingMismatchError(RuntimeError):
    """Argument-principle count disagrees with the converged pole set."""


class GamowResidualError(RuntimeError):
    """Outgoing-boundary residual too large: the momentum is not a pole."""


class BoundStateError(ValueError):
    """The profile binds a state below E = 0, which the pole expansion omits."""


def pole_function(profile: PotentialProfile, k: complex) -> complex:
    """m22(k), whose fourth-quadrant zeros are the resonance poles."""
    return complex(_transfer_entries(profile, complex(k))[3])


def _newton(profile: PotentialProfile, seeds) -> tuple[np.ndarray, np.ndarray]:
    """Newton iteration on m22(k) from every seed at once.

    The derivative is a central difference; m22 is analytic so the step is
    accurate to far more digits than Newton needs.  Each round evaluates m22
    at k and k +- h for every seed still iterating in one transfer-matrix
    call.  A seed stops when its step, capped at 0.2 |k|, falls below
    ``NEWTON_TOL``; one whose derivative vanishes, whose step is not finite,
    or that runs out of ``NEWTON_MAX_ITER`` rounds, fails.  Returns the
    final momenta and the mask of converged seeds.
    """
    k = np.array(seeds, dtype=complex).ravel()
    converged = np.zeros(k.size, dtype=bool)
    active = np.arange(k.size)
    for _ in range(NEWTON_MAX_ITER):
        if active.size == 0:
            break
        ka = k[active]
        h = 1e-6 * np.maximum(np.abs(ka), 1e-4)
        m22 = _transfer_entries(profile, np.concatenate([ka, ka + h, ka - h]))[3]
        f, f_plus, f_minus = m22.reshape(3, -1)
        df = (f_plus - f_minus) / (2.0 * h)
        flat = df == 0.0
        step = f / np.where(flat, 1.0, df)
        limit = 0.2 * np.maximum(np.abs(ka), 1e-4)
        step *= limit / np.maximum(np.abs(step), limit)
        k[active] = ka - step
        done = np.abs(step) < NEWTON_TOL
        converged[active[done & ~flat]] = True
        active = active[~(done | flat | ~np.isfinite(step))]
    return k, converged


def refine_pole(profile: PotentialProfile, k_seed: complex) -> complex:
    """Newton iteration on m22(k) from one seed momentum (see ``_newton``)."""
    k, converged = _newton(profile, [k_seed])
    if not converged[0]:
        raise PoleConvergenceError(
            f"no convergence from seed {k_seed} in {NEWTON_MAX_ITER} iterations (last k {k[0]})"
        )
    return complex(k[0])


def _contour_steps(
    profile: PotentialProfile, re_range: tuple[float, float], im_range: tuple[float, float], known=()
) -> tuple[np.ndarray, np.ndarray]:
    """Steps of log g once around a rectangle, g(k) = m22(k) / prod_j (k - k_j).

    The four edges are sampled as one array; every step whose phase change
    exceeds pi/2 is bisected, all of them in one batch per round, until the
    continuous argument along the contour is pinned.  Returns the step
    midpoints and the increments log(g_{i+1} / g_i).
    """
    (re_lo, re_hi), (im_lo, im_hi) = re_range, im_range
    corners = [complex(re_lo, im_lo), complex(re_hi, im_lo), complex(re_hi, im_hi), complex(re_lo, im_hi)]
    ts = np.linspace(0.0, 1.0, SAMPLES_PER_EDGE, endpoint=False)
    edges = [a + (b - a) * ts for a, b in zip(corners, corners[1:] + corners[:1])]
    known = np.asarray(known, dtype=complex)

    def g(k):
        return _transfer_entries(profile, k)[3] / np.prod(k[:, np.newaxis] - known, axis=1)

    k = np.concatenate(edges + [corners[:1]])
    vals = g(k)
    budget = 4 * MAX_REFINEMENTS * SAMPLES_PER_EDGE
    while True:
        ratio = vals[1:] / vals[:-1]
        wide = np.flatnonzero(np.abs(np.angle(ratio)) > 0.5 * np.pi)
        if wide.size == 0:
            return 0.5 * (k[1:] + k[:-1]), np.log(ratio)
        budget -= wide.size
        if budget < 0:
            raise WindingMismatchError("contour refinement exhausted (zero on the contour?)")
        mid = 0.5 * (k[wide] + k[wide + 1])
        k = np.insert(k, wide + 1, mid)
        vals = np.insert(vals, wide + 1, g(mid))


def _zero_count(dlog: np.ndarray) -> int:
    count = float(np.sum(dlog.imag)) / (2.0 * np.pi)
    if not abs(count - np.round(count)) <= 0.1:  # NaN too: m22 = 0 on the contour
        raise WindingMismatchError(f"non-integer winding number {count:.3f}")
    return int(round(count))


def winding_number(
    profile: PotentialProfile,
    re_range: tuple[float, float],
    im_range: tuple[float, float],
) -> int:
    """Number of zeros of m22 inside a rectangle, by the argument principle."""
    return _zero_count(_contour_steps(profile, re_range, im_range)[1])


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


def gamow_state(profile: PotentialProfile, k_n: complex) -> ResonantState:
    """Normalized Gamow eigenfunction for a verified pole momentum.

    Integrates (psi, psi') from x = 0 with u(0) = 1, u'(0) = -i k_n u(0) and
    checks the outgoing condition u'(L) = +i k_n u(L); a relative residual
    above ``BC_TOL`` means k_n is not actually a pole.  The normalization
    integral of u^2 is exact, a sum of closed-form segment integrals.
    """
    k_n = complex(k_n)
    if not (k_n.real > 0.0 and k_n.imag < 0.0):
        raise GamowResidualError(f"pole must lie in the fourth quadrant, got {k_n}")
    wave = _PiecewiseWave(profile, k_n, 1.0, -1j * k_n)
    u_l, du_l = wave.end_values
    residual = abs(du_l - 1j * k_n * u_l) / (abs(k_n) * abs(u_l))
    if residual > BC_TOL:
        raise GamowResidualError(
            f"outgoing-boundary residual {residual:.2e} exceeds {BC_TOL:.1e}; not a pole"
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
    profile: PotentialProfile, e_max_ev: float, max_poles: int | None = None
) -> list[ResonantState]:
    """Poles with eps_n <= e_max_ev, sorted by resonance energy.

    Every maximum of the transmission grid seeds Newton at
    sqrt((E_peak - i w / 2) / c2), with w the grid scale at the peak, and all
    seeds are refined in lockstep.  Completeness is cross-checked by the
    argument-principle count over the search rectangle
    Re k in [k(SCAN_FLOOR_EV)/2, k(e_max)], Im k in [-k(e_max), 0); a seed
    that fails or lands on a pole already found leaves a deficit that the
    contour moments of ``_recover_poles`` fill.  The count takes the
    rectangle's top edge at Im k = +(k_hi - k_lo)/SAMPLES_PER_EDGE rather
    than on the real axis, just above the narrow poles, where the contour
    would need rounds of bisection.  The count is the same: m22 of a real
    potential has no zero with Im k > 0 besides bound states on the
    imaginary axis, which are refused, and |m22| = 1/|t| >= 1 on the real
    axis.  A profile that binds a state below E = 0 is refused with
    ``BoundStateError``.
    """
    if not e_max_ev > 0.0:
        raise ValueError("e_max must be positive")
    if max_poles is not None and max_poles < 0:
        raise ValueError("max_poles must be >= 0")
    bound = bound_state_energies(profile)
    if bound.size:
        raise BoundStateError(
            f"profile binds {bound.size} state(s) below E = 0, the lowest at {bound[0]:.6g} eV; "
            "the resonance expansion omits bound states"
        )
    c2 = profile.constants.hbar2_over_2m
    scan = transmission_scan(profile, SCAN_FLOOR_EV, e_max_ev)

    seeds = [cmath.sqrt((p.energy_ev - 0.5j * p.gamma_estimate_ev) / c2) for p in scan.peaks]
    ks, converged = _newton(profile, seeds)
    found: list[complex] = []
    for k in ks[converged].tolist():
        if k.real > 0.0 and k.imag < 0.0 and _is_new(k, found):
            found.append(k)

    # pad the rectangle so corners cannot land exactly on a barrier-top
    # wavevector (kappa = 0 there) or on a pole
    k_hi = profile.constants.wavevector(e_max_ev) * (1.0 + 3e-9)
    k_lo = 0.5 * profile.constants.wavevector(SCAN_FLOOR_EV)
    rectangle = ((k_lo, k_hi), (-k_hi, 0.0))

    def in_rectangle(ks):
        return [k for k in ks if k_lo <= k.real <= k_hi and -k_hi <= k.imag < 0.0]

    in_rect = in_rectangle(found)
    count = winding_number(profile, (k_lo, k_hi), (-k_hi, (k_hi - k_lo) / SAMPLES_PER_EDGE))
    if count > len(in_rect):
        # a pole without a clean transmission maximum (broad, above the
        # barrier top, or riding a monotone background)
        recovered = _recover_poles(profile, *rectangle, in_rect)
        found += [k for k in recovered if _is_new(k, found)]
        in_rect = in_rectangle(found)
    if count != len(in_rect):
        raise WindingMismatchError(
            f"winding count {count} != {len(in_rect)} converged poles "
            f"(missed or spurious pole; {np.count_nonzero(~converged)} seed(s) failed Newton)"
        )

    states = [gamow_state(profile, k) for k in in_rect]
    states = [s for s in states if s.eps_ev <= e_max_ev]
    states.sort(key=lambda s: s.eps_ev)
    if max_poles is not None:
        states = states[:max_poles]
    return states


def _recover_poles(
    profile: PotentialProfile, re_range: tuple[float, float], im_range: tuple[float, float],
    known: list[complex],
) -> list[complex]:
    """Poles the seed scan missed, from contour moments of the deflated m22.

    With the known poles divided out, g = m22 / prod_j (k - k_j) has only the
    missing n zeros inside the rectangle, and the moments
    s_p = (1/2 pi i) contour z^p dlog g, p = 1..n, of the centred, scaled
    momentum z are their power sums (Delves & Lyness).  Newton's identities
    turn them into a polynomial whose roots seed lockstep Newton.  A seed can
    fall into a neighbour's basin, so the pass repeats with every pole found
    so far divided out, until none is missing or a pass adds nothing.
    """
    (re_lo, re_hi), (im_lo, im_hi) = re_range, im_range
    center = complex(0.5 * (re_lo + re_hi), 0.5 * (im_lo + im_hi))
    scale = 0.5 * max(re_hi - re_lo, im_hi - im_lo)
    recovered: list[complex] = []
    while True:
        mid, dlog = _contour_steps(profile, re_range, im_range, known + recovered)
        missing = _zero_count(dlog)
        if missing <= 0:
            return recovered
        z = (mid - center) / scale
        sums = [np.sum(z**p * dlog) / (2j * np.pi) for p in range(missing + 1)]
        coeffs = [1.0]  # monic polynomial of the missing zeros, from Newton's identities
        for p in range(1, missing + 1):
            coeffs.append(-sum(coeffs[i] * sums[p - i] for i in range(p)) / p)
        before = len(recovered)
        seeds = center + scale * np.roots(coeffs)
        ks, converged = _newton(profile, seeds)
        for k in ks[converged].tolist():
            if _is_new(k, known + recovered) and re_lo <= k.real <= re_hi and im_lo <= k.imag < 0.0:
                recovered.append(k)
        if len(recovered) == before:
            return recovered


def _is_new(k: complex, others) -> bool:
    return all(abs(k - other) > max(1e-8, 1e-9 * abs(k)) for other in others)


def one_term_phi(state: ResonantState, energy_ev: float, x) -> complex:
    """Sharp-resonance one-term approximation 2ik u_n(0) u_n(x) / (k^2 - k_n^2).

    Intended for R_n >> 1 and E near eps_n; accuracy improves with R_n.
    """
    k = state.profile.constants.wavevector(energy_ev)
    return 2j * k * state.u0 * state.u(x) / (k * k - state.k * state.k)
