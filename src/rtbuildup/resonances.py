"""Resonance poles in the fourth quadrant of the complex k plane.

A resonance is a zero of the transfer-matrix entry m22(k), the denominator
of t(k).  m22 is analytic in k away from k = 0 (the segment propagators are
even in the local wavevectors), so Newton iteration with a finite-difference
derivative converges quadratically from a nearby seed, and the argument
principle on a rectangle counts the zeros inside it.

``find_poles`` searches Re k in [k(SCAN_FLOOR_EV)/2, k(e_max)],
Im k in [-k(e_max), 0).  It samples m22 once around this rectangle with the
top edge lifted to Im k = +(k_hi - k_lo)/SAMPLES_PER_EDGE, just above the
narrow poles, where the contour would need rounds of bisection.  The count is
the same: m22 of a real potential has no zero with Im k > 0 besides bound
states on the imaginary axis, which are refused, and |m22| = 1/|t| >= 1 on
the real axis.  A ceiling at which m22 overflows on that contour is refused
before anything else runs.  One loop (``_recover_poles``) then finds the poles
and certifies them.  Each pass

1. divides the poles found so far out of the samples,
   g = m22 / prod_j (k - k_j), and counts the missing zeros of g by the
   argument principle, bisecting every step whose phase change exceeds
   pi/2 (m22 is evaluated only at the new points, which later passes keep);
   the search ends when none is missing;
2. takes its seeds: on the first pass the maxima of the transmission scan,
   sqrt((E_peak - i w / 2) / c2) with w the grid scale at the peak; on later
   passes the roots of the polynomial whose power sums are the contour
   moments s_p = (1/2 pi i) contour z^p dlog g, p = 1..missing, of the
   centred, scaled momentum z (Delves & Lyness), by Newton's identities;
3. refines every seed in lockstep Newton on the deflated g, one
   transfer-matrix call per round however many seeds there are, and keeps
   the new poles inside the rectangle.

A pass that adds exactly the missing number ends the search with no
confirming contour.  A moment pass that adds nothing, or a pass that adds
more poles than are missing, raises ``WindingMismatchError`` with the count
of the first pass.  Poles without a clean transmission maximum (broad, above
the barrier top, or riding a monotone background) are the ones the moments
find.

The associated Gamow eigenfunction u_n solves the stationary equation at the
complex energy E_n = hbar^2 k_n^2 / 2m with purely outgoing boundary
conditions and is normalized by the contour-regularized rule

    integral_0^L u_n^2 dx + i [u_n^2(0) + u_n^2(L)] / (2 k_n) = 1,

whose integral is exact: inside each segment u_n is a sum of two complex
exponentials, so its square integrates in closed form.  This is the
convention under which the stationary wave near a sharp resonance
collapses to the one-term expression 2ik u_n(0) u_n(x) / (k^2 - k_n^2).
All poles of a search are normalized in one march over the segments.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field

import numpy as np

from .profile import PotentialProfile
from .scattering import _march, _PiecewiseWave, _transfer_entries, bound_state_energies, transmission_scan


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


def _newton(profile: PotentialProfile, seeds, known=()) -> tuple[np.ndarray, np.ndarray]:
    """Newton iteration on m22(k) from every seed at once.

    The derivative is a central difference; m22 is analytic so the step is
    accurate to far more digits than Newton needs.  Each round evaluates m22
    at k and k +- h for every seed still iterating in one transfer-matrix
    call.  With ``known`` poles, the step is that of Newton on the deflated
    g = m22 / prod_j (k - k_j), m22 / (m22' - m22 sum_j 1/(k - k_j)), which
    pushes a seed away from the known zeros instead of into their basins.  A
    seed stops when its step, capped at 0.2 |k|, falls below ``NEWTON_TOL``;
    one whose derivative vanishes, whose step is not finite, or that runs
    out of ``NEWTON_MAX_ITER`` rounds, fails.  Returns the final momenta and
    the mask of converged seeds.
    """
    k = np.array(seeds, dtype=complex).ravel()
    known = np.asarray(known, dtype=complex)
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
        if known.size:
            df = df - f * np.sum(1.0 / (ka[:, np.newaxis] - known), axis=1)
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


def _edge_samples(
    profile: PotentialProfile, re_range: tuple[float, float], im_range: tuple[float, float]
) -> tuple[np.ndarray, np.ndarray]:
    """(k, m22(k)) once around a rectangle: ``SAMPLES_PER_EDGE`` per edge, then the first corner again."""
    (re_lo, re_hi), (im_lo, im_hi) = re_range, im_range
    corners = [complex(re_lo, im_lo), complex(re_hi, im_lo), complex(re_hi, im_hi), complex(re_lo, im_hi)]
    ts = np.linspace(0.0, 1.0, SAMPLES_PER_EDGE, endpoint=False)
    edges = [a + (b - a) * ts for a, b in zip(corners, corners[1:] + corners[:1])]
    k = np.concatenate(edges + [corners[:1]])
    return k, _transfer_entries(profile, k)[3]


def _contour_steps(
    profile: PotentialProfile, samples: tuple[np.ndarray, np.ndarray], known=()
) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
    """Steps of log g along a closed contour sampled as (k, m22), g(k) = m22(k) / prod_j (k - k_j).

    Every step whose phase change of g exceeds pi/2 is bisected, all of them
    in one batch per round, until the continuous argument along the contour
    is pinned; m22 is evaluated only at the new points.  Returns the refined
    samples, which a later pass with more poles divided out starts from, and
    the increments log(g_{i+1} / g_i).
    """
    k, m22 = samples
    known = np.asarray(known, dtype=complex)

    def deflation(k):
        return np.prod(k[:, np.newaxis] - known, axis=1)

    vals = m22 / deflation(k)
    budget = 4 * MAX_REFINEMENTS * SAMPLES_PER_EDGE
    while True:
        ratio = vals[1:] / vals[:-1]
        wide = np.flatnonzero(np.abs(np.angle(ratio)) > 0.5 * np.pi)
        if wide.size == 0:
            return (k, m22), np.log(ratio)
        budget -= wide.size
        if budget < 0:
            raise WindingMismatchError("contour refinement exhausted (zero on the contour?)")
        mid = 0.5 * (k[wide] + k[wide + 1])
        m22_mid = _transfer_entries(profile, mid)[3]
        k = np.insert(k, wide + 1, mid)
        m22 = np.insert(m22, wide + 1, m22_mid)
        vals = np.insert(vals, wide + 1, m22_mid / deflation(mid))


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
    return _zero_count(_contour_steps(profile, _edge_samples(profile, re_range, im_range))[1])


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


def _gamow_states(profile: PotentialProfile, ks) -> list[ResonantState]:
    """Normalized Gamow eigenfunctions for verified pole momenta, all in one march.

    Integrates (psi, psi') from x = 0 with u(0) = 1, u'(0) = -i k_n u(0) for
    every k_n at once and checks the outgoing condition u'(L) = +i k_n u(L);
    a relative residual above ``BC_TOL`` means k_n is not actually a pole.
    The normalization integral of u^2 is exact: inside a segment
    u = A e^{i kappa s} + B e^{-i kappa s} with A, B = (u +- u'/(i kappa)) / 2,
    so u^2 integrates to A^2 expm1(2i kappa w)/(2i kappa)
    - B^2 expm1(-2i kappa w)/(2i kappa) + 2ABw.  The exponential form avoids
    the cancellation the cos/sin form suffers in evanescent segments.  Each
    state keeps its own column of the marched pairs.
    """
    ks = np.asarray(ks, dtype=complex).ravel()
    outside = ~((ks.real > 0.0) & (ks.imag < 0.0))
    if outside.any():
        raise GamowResidualError(f"pole must lie in the fourth quadrant, got {complex(ks[outside][0])}")
    kappa, values, derivs = _march(profile, ks, np.ones(ks.size), -1j * ks)
    u_l, du_l = values[-1], derivs[-1]
    residual = np.abs(du_l - 1j * ks * u_l) / (np.abs(ks) * np.abs(u_l))
    if np.any(residual > BC_TOL):
        raise GamowResidualError(
            f"outgoing-boundary residual {np.max(residual):.2e} exceeds {BC_TOL:.1e}; not a pole"
        )

    ik = 1j * kappa
    width = profile.widths[:, np.newaxis]
    ratio = derivs[:-1] / ik
    a = 0.5 * (values[:-1] + ratio)
    b = 0.5 * (values[:-1] - ratio)
    parts = (a * a * np.expm1(2.0 * ik * width) - b * b * np.expm1(-2.0 * ik * width)) / (2.0 * ik)
    norm_sq = np.sum(parts + 2.0 * a * b * width, axis=0)
    norm_sq += 1j * (1.0 + u_l * u_l) / (2.0 * ks)  # u(0) = 1 before scaling
    scale = 1.0 / np.sqrt(norm_sq)
    values = values * scale
    derivs = derivs * scale
    return [
        ResonantState(
            k, profile.constants.energy_ev(k), profile, complex(values[0, i]), complex(values[-1, i]),
            _PiecewiseWave(profile, kappa[:, i], values[:, i], derivs[:, i]),
        )
        for i, k in enumerate(ks.tolist())
    ]


def gamow_state(profile: PotentialProfile, k_n: complex) -> ResonantState:
    """Normalized Gamow eigenfunction for one verified pole momentum (see ``_gamow_states``)."""
    return _gamow_states(profile, [k_n])[0]


def find_poles(profile: PotentialProfile, e_max_ev: float) -> list[ResonantState]:
    """Poles with eps_n <= e_max_ev, sorted by resonance energy (the search is in the module docstring).

    Raises ``BoundStateError`` for a profile that binds a state below E = 0,
    ``ValueError`` for a ceiling at which m22 overflows on the search
    contour, and ``WindingMismatchError`` when the count does not certify
    the poles found.
    """
    if not e_max_ev > 0.0:
        raise ValueError("e_max must be positive")
    bound = bound_state_energies(profile)
    if bound.size:
        raise BoundStateError(
            f"profile binds {bound.size} state(s) below E = 0, the lowest at {bound[0]:.6g} eV; "
            "the resonance expansion omits bound states"
        )
    # pad the rectangle so corners cannot land exactly on a barrier-top
    # wavevector (kappa = 0 there) or on a pole
    k_hi = profile.constants.wavevector(e_max_ev) * (1.0 + 3e-9)
    k_lo = 0.5 * profile.constants.wavevector(SCAN_FLOOR_EV)
    lifted = ((k_lo, k_hi), (-k_hi, (k_hi - k_lo) / SAMPLES_PER_EDGE))
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        samples = _edge_samples(profile, *lifted)
    if not np.all(np.isfinite(samples[1])):
        raise ValueError(f"m22 overflows on the search contour at the ceiling {e_max_ev:g} eV")
    c2 = profile.constants.hbar2_over_2m
    peaks = transmission_scan(profile, SCAN_FLOOR_EV, e_max_ev).peaks
    seeds = [cmath.sqrt((p.energy_ev - 0.5j * p.gamma_estimate_ev) / c2) for p in peaks]
    states = _gamow_states(profile, _recover_poles(profile, *lifted, seeds, samples=samples))
    states = [s for s in states if s.eps_ev <= e_max_ev]
    states.sort(key=lambda s: s.eps_ev)
    return states


def _recover_poles(
    profile: PotentialProfile, re_range: tuple[float, float], im_range: tuple[float, float],
    seeds, *, samples: tuple[np.ndarray, np.ndarray],
) -> list[complex]:
    """Every zero of m22 inside the rectangle, certified by the count on its contour.

    ``seeds`` seed the first Newton pass, ``samples`` are (k, m22) around the
    rectangle (see ``_edge_samples``); the passes are in the module
    docstring.
    """
    (re_lo, re_hi), (im_lo, im_hi) = re_range, im_range
    center = complex(0.5 * (re_lo + re_hi), 0.5 * (im_lo + im_hi))
    scale = 0.5 * max(re_hi - re_lo, im_hi - im_lo)
    found: list[complex] = []
    count = None
    while True:
        samples, dlog = _contour_steps(profile, samples, found)
        missing = _zero_count(dlog)
        count = missing if count is None else count
        if missing == 0:
            return found
        moments = seeds is None
        if moments:
            k_contour = samples[0]
            z = (0.5 * (k_contour[1:] + k_contour[:-1]) - center) / scale
            sums = [np.sum(z**p * dlog) / (2j * np.pi) for p in range(missing + 1)]
            coeffs = [1.0]  # monic polynomial of the missing zeros, from Newton's identities
            for p in range(1, missing + 1):
                coeffs.append(-sum(coeffs[i] * sums[p - i] for i in range(p)) / p)
            seeds = center + scale * np.roots(coeffs)
        ks, converged = _newton(profile, seeds, known=found)
        new: list[complex] = []
        for k in ks[converged].tolist():
            if re_lo <= k.real <= re_hi and im_lo <= k.imag < 0.0 and _is_new(k, found + new):
                new.append(k)
        found += new
        if len(new) > missing or (moments and not new):
            raise WindingMismatchError(f"winding count {count} != {len(found)} converged poles")
        if len(new) == missing:
            return found
        seeds = None


def _is_new(k: complex, others) -> bool:
    return all(abs(k - other) > max(1e-8, 1e-9 * abs(k)) for other in others)


def one_term_phi(state: ResonantState, energy_ev: float, x) -> complex:
    """Sharp-resonance one-term approximation 2ik u_n(0) u_n(x) / (k^2 - k_n^2).

    Intended for R_n >> 1 and E near eps_n; accuracy improves with R_n.
    """
    k = state.profile.constants.wavevector(energy_ev)
    return 2j * k * state.u0 * state.u(x) / (k * k - state.k * state.k)
