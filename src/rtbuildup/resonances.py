"""Resonance poles in the fourth quadrant of the complex k plane.

A resonance is a zero of the transfer-matrix entry m22(k), the denominator
of t(k).  m22 is analytic in k away from k = 0 (it is unchanged under
kappa_j -> -kappa_j of any segment, so the choice of square root is
immaterial), so Newton iteration with a finite-difference derivative
converges quadratically from a nearby seed, and the argument principle on
a rectangle counts the zeros inside it.  The search evaluates m22 with
``scattering._m22``, which marches the amplitudes of the left state
e^{-ikx} across the segments: deep in the quadrant, across wide evanescent
or zero-height segments, it keeps the digits that a (psi, psi') march or a
product of full transfer matrices loses to cancellation.  Near a segment
height it floors |kappa_j| w_j (see ``scattering``).

``find_poles`` searches Re k in [k(SCAN_FLOOR_EV)/2, k(e_max)],
Im k in [-k(e_max), 0), and takes no seed from a transmission scan.  It
returns the poles with Re k_n <= k(e_max), hbar^2 (Re k_n)^2 / 2m* <= e_max,
not eps_n <= e_max, which would take Re k up to sqrt(2) k(e_max).  It
samples m22 once around this deep rectangle with the top edge lifted to
Im k = +(k_hi - k_lo)/SAMPLES_PER_EDGE, just above the narrow poles, where
the contour would need rounds of bisection.  The count is the same: m22 of a
real potential has no zero with Im k > 0 besides bound states on the
imaginary axis, which are refused, and |m22| = 1/|t| >= 1 on the real axis.
A ceiling at which m22 overflows on that contour is refused before anything
else runs.  The count N on the deep contour decides where one loop
(``_recover_poles``) runs: with N <= 8 on the deep contour itself, whose
first pass is the count; otherwise on ceil(N / 8) equal strips of Re k
over the shallow band Im k in [-0.1, lifted top], since the moments of a
deep contour are scaled by its depth while the poles lie close to the
axis.  If the strips' counts add up to less than N, the rectangle below
the band, Im k in [-k(e_max), -0.1], joins them.  All rectangles run the
loop in lockstep: every pass refines all their seeds together, while each
rectangle counts and keeps its own poles (one m22 call samples all the
strips' edges).  Each pass of the loop

1. divides the poles found so far out of the samples,
   g = m22 / prod_j (k - k_j), and counts the missing zeros of g by the
   argument principle, bisecting every step whose phase change exceeds
   pi/2 (m22 is evaluated only at the new points, which later passes keep);
   the loop ends when none is missing;
2. takes its seeds from the roots of the polynomial whose power sums are
   the contour moments s_p = (1/2 pi i) contour z^p dlog g, p = 1..missing,
   of the centred, scaled momentum z (Delves & Lyness), by Newton's
   identities.  The moments are taken by parts, from L = log g unwrapped
   along the contour, by composite Simpson on each edge's uniform samples;
   a second-order rule leaves the seeds of a deep contour about one pole
   spacing off, this fourth-order one in their poles' basins.  The points
   step 1 inserts only unwrap L;
3. refines every seed in lockstep Newton on m22 with every pole found so
   far divided out, one m22 call per round however many seeds there are,
   and keeps the new poles inside the rectangle.

A pass that adds exactly the missing number ends the loop with no
confirming contour.  A pass that adds nothing or more poles than are
missing, or counts fewer than none, raises ``WindingMismatchError`` with
the count of the first pass, and so does a search whose rectangles together
do not find N poles.

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

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .profile import PotentialProfile
from .scattering import _m22, _march, _PiecewiseWave, bound_state_energies

# not used by the search, which evaluates m22 with _m22: the benchmark's
# tracer patches these names (perfbench/spans.BINDINGS), and keeps them
# until those bindings are retired
from .scattering import _transfer_entries, transmission_scan  # noqa: F401


SCAN_FLOOR_EV = 1e-3  # the search starts at Re k = k(SCAN_FLOOR_EV) / 2
NEWTON_TOL = 1e-12  # Newton stops once its step is below this, in 1/A
NEWTON_MAX_ITER = 100  # Newton rounds before a seed counts as failed
BC_TOL = 1e-8  # largest relative outgoing-boundary residual of a pole
SAMPLES_PER_EDGE = 128
MAX_REFINEMENTS = 60  # bisection budget per edge, in multiples of SAMPLES_PER_EDGE
_STRIP_POLES = 8  # most poles the moments take from one contour
_STRIP_DEPTH = 0.1  # depth of the shallow band the strips cover, in 1/A


def _simpson_rows() -> np.ndarray:
    """Row e: composite Simpson's 1, 4, 2, ..., 4, 1 on edge e's samples of a ring, over 3 SAMPLES_PER_EDGE.

    The ring is ``_edge_samples``': 4 SAMPLES_PER_EDGE + 1 points, edge e
    from point e SAMPLES_PER_EDGE to point (e + 1) SAMPLES_PER_EDGE.
    """
    n = SAMPLES_PER_EDGE
    edge = np.where(np.arange(n + 1) % 2, 4.0, 2.0) / (3 * n)
    edge[[0, -1]] /= 2.0
    rows = np.zeros((4, 4 * n + 1))
    for e in range(4):
        rows[e, e * n : (e + 1) * n + 1] = edge
    return rows


_SIMPSON = _simpson_rows()


class PoleConvergenceError(RuntimeError):
    """Newton refinement failed to converge to a pole (raised only by ``refine_pole``)."""


class WindingMismatchError(RuntimeError):
    """Argument-principle count disagrees with the converged pole set."""


class GamowResidualError(RuntimeError):
    """Outgoing-boundary residual too large, so the momentum is not a pole, or a normalization not finite."""


class BoundStateError(ValueError):
    """The profile binds a state below E = 0, which the pole expansion omits."""


_OFFSETS = np.array([[0.0], [1.0], [-1.0]])  # k, k + h, k - h of a central difference


@np.errstate(over="ignore", invalid="ignore")
def _newton(profile: PotentialProfile, seeds, known=()) -> tuple[np.ndarray, np.ndarray]:
    """Newton iteration on m22(k) from every seed at once.

    The derivative is a central difference; m22 is analytic so the step is
    accurate to far more digits than Newton needs.  Each round evaluates m22
    at k and k +- h for every seed still iterating in one ``_m22`` call.
    With ``known`` poles, the step is that of Newton on the deflated
    g = m22 / prod_j (k - k_j), m22 / (m22' - m22 sum_j 1/(k - k_j)), which
    pushes a seed away from the known zeros instead of into their basins.  A
    seed stops when its step, capped at 0.2 |k|, falls below ``NEWTON_TOL``;
    one whose derivative vanishes, whose step is not finite (m22 overflows
    where |Im k| L exceeds about 709), or that runs out of
    ``NEWTON_MAX_ITER`` rounds, fails, with no numpy warning.  Returns the
    final momenta and the mask of converged seeds.
    """
    k = np.array(seeds, dtype=complex).ravel()
    known = np.asarray(known, dtype=complex)
    converged = np.zeros(k.size, dtype=bool)
    active = np.arange(k.size)
    for _ in range(NEWTON_MAX_ITER):
        if active.size == 0:
            break
        ka = k[active]
        scale = np.maximum(np.abs(ka), 1e-4)
        h = 1e-6 * scale
        f, f_plus, f_minus = _m22(profile, ka + h * _OFFSETS)
        df = (f_plus - f_minus) / (2.0 * h)
        if known.size:
            df -= f * np.sum(1.0 / (ka[:, np.newaxis] - known), axis=1)
        sloped = df != 0.0
        step = f / np.where(sloped, df, 1.0)
        size = np.abs(step)
        limit = 0.2 * scale
        k[active] = ka - step * (limit / np.maximum(size, limit))
        # a capped step is at least 2e-5 long, so the uncapped size decides
        done = size < NEWTON_TOL
        converged[active[done & sloped]] = True
        active = active[sloped & ~done & np.isfinite(size)]
    return k, converged


def refine_pole(profile: PotentialProfile, k_seed: complex) -> complex:
    """Newton on m22 from one seed (``_newton``); unexported, kept for the tracer and tests until ROADMAP item 11."""
    k, converged = _newton(profile, [k_seed])
    if not converged[0]:
        raise PoleConvergenceError(
            f"no convergence from seed {k_seed} in {NEWTON_MAX_ITER} iterations (last k {k[0]})"
        )
    return complex(k[0])


def _edge_samples(profile: PotentialProfile, rects) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(k, m22(k), grid) once around each rectangle ((re_lo, re_hi), (im_lo, im_hi)), all in one ``_m22`` call.

    ``SAMPLES_PER_EDGE`` per edge counterclockwise from (re_lo, im_lo), then
    that corner again; ``grid`` holds the positions of these uniform samples
    among the points ``_contour_steps`` inserts later.
    """
    ts = np.arange(SAMPLES_PER_EDGE) / SAMPLES_PER_EDGE
    rings = []
    for (re_lo, re_hi), (im_lo, im_hi) in rects:
        a = np.array([complex(re_lo, im_lo), complex(re_hi, im_lo), complex(re_hi, im_hi), complex(re_lo, im_hi)])
        b = np.roll(a, -1)
        rings.append(np.append(a[:, np.newaxis] + (b - a)[:, np.newaxis] * ts, a[0]))
    k = np.array(rings)
    grid = np.arange(k.shape[1])
    return [(ring, m22, grid) for ring, m22 in zip(k, _m22(profile, k))]


def _contour_steps(
    profile: PotentialProfile, samples: tuple[np.ndarray, np.ndarray, np.ndarray], known=()
) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], np.ndarray]:
    """Steps of log g along a closed contour sampled as (k, m22, grid), g(k) = m22(k) / prod_j (k - k_j).

    Every step whose phase change of g exceeds pi/2 is bisected, all of them
    in one batch per round, until the continuous argument along the contour
    is pinned; m22 is evaluated only at the new points, and ``grid`` follows
    the uniform samples' positions.  Returns the refined samples, which a
    later pass with more poles divided out starts from, and the increments
    log(g_{i+1} / g_i).
    """
    k, m22, grid = samples
    known = np.asarray(known, dtype=complex)

    def deflated(k, m22):
        with np.errstate(all="ignore"):  # refused just below
            vals = m22 / np.prod(k[:, np.newaxis] - known, axis=1)
        # a step next to a zero or non-finite sample is 0/0 or x/0
        if not np.all(np.isfinite(vals) & (vals != 0.0)):
            raise WindingMismatchError("contour refinement exhausted (zero on the contour?)")
        return vals

    vals = deflated(k, m22)
    budget = 4 * MAX_REFINEMENTS * SAMPLES_PER_EDGE
    while True:
        ratio = vals[1:] / vals[:-1]
        wide = np.flatnonzero(ratio.real < 0.0)  # |arg ratio| > pi/2
        if wide.size == 0:
            # log|ratio| + i arg(ratio) is np.log(ratio) in a fifth of its time
            return (k, m22, grid), np.log(np.abs(ratio)) + 1j * np.angle(ratio)
        budget -= wide.size
        # float64 cannot bisect a step this short: rounding noise, or a zero on the contour
        short = np.abs(k[wide + 1] - k[wide]) < 1e-13 * np.abs(k[wide])
        if budget < 0 or short.any():
            raise WindingMismatchError("contour refinement exhausted (zero on the contour?)")
        mid = 0.5 * (k[wide] + k[wide + 1])
        m22_mid = _m22(profile, mid)
        k = np.insert(k, wide + 1, mid)
        m22 = np.insert(m22, wide + 1, m22_mid)
        vals = np.insert(vals, wide + 1, deflated(mid, m22_mid))
        grid = grid + np.searchsorted(wide, grid)  # each sample moves past the points inserted before it


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
    """Count of m22's zeros in a rectangle; unexported, kept for the tracer and tests until ROADMAP item 11."""
    return _zero_count(_contour_steps(profile, _edge_samples(profile, [(re_range, im_range)])[0])[1])


@dataclass(frozen=True)
class ResonantState:
    """Pole momentum, resonance parameters, and the normalized Gamow function."""

    k: complex
    profile: PotentialProfile = field(repr=False)
    u0: complex = field(repr=False)
    _wave: _PiecewiseWave = field(repr=False, compare=False)

    @cached_property
    def energy_ev(self) -> complex:
        """Complex pole energy eps_n - i Gamma_n / 2 = hbar^2 k_n^2 / 2m*."""
        return self.profile.constants.energy_ev(self.k)

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


def _gamow_states(profile: PotentialProfile, ks) -> list[ResonantState]:
    """Normalized Gamow eigenfunctions for verified pole momenta, all in one march.

    Marches the purely outgoing e^{-ikx} left of x = 0, (a, b) = (0, 1) so
    that u(0) = 1, for every k_n at once; right of L the state must be
    outgoing too, u = a e^{ik(x-L)} with b = m22(k_n) = 0.  The residual
    2|b(L)| = |u'(L) - i k_n u(L)| / |k_n| relative to max |u| over the
    segment edges must not exceed ``BC_TOL``, or k_n is not actually a pole
    (max |u|, since a pole's state may decay across the structure to a tiny
    u(L)).  The normalization integral of u^2 is exact: inside a segment
    u = A e^{i kappa s} + B e^{-i kappa s}, with A and B the marched
    amplitudes, so u^2 integrates to A^2 expm1(2i kappa w)/(2i kappa)
    - B^2 expm1(-2i kappa w)/(2i kappa) + 2ABw; where it or its inverse
    square root is not finite, as on a 1e-200 A segment, that is a
    ``GamowResidualError`` too.  Each state keeps its own column of the
    marched amplitudes.
    """
    ks = np.asarray(ks, dtype=complex).ravel()
    outside = ~((ks.real > 0.0) & (ks.imag < 0.0))
    if outside.any():
        raise GamowResidualError(f"pole must lie in the fourth quadrant, got {complex(ks[outside][0])}")
    kappa, a, b = _march(profile, ks)
    u = a + b  # u at the left edge of every segment and at x = L
    residual = 2.0 * np.abs(b[-1]) / np.max(np.abs(u), axis=0)
    if np.any(residual > BC_TOL):
        raise GamowResidualError(
            f"outgoing-boundary residual {np.max(residual):.2e} exceeds {BC_TOL:.1e}; not a pole"
        )

    kappa, a, b = kappa[:-1], a[:-1], b[:-1]
    ik = 1j * kappa
    width = profile.widths[:, np.newaxis]
    with np.errstate(all="ignore"):  # refused just below
        parts = (a * a * np.expm1(2.0 * ik * width) - b * b * np.expm1(-2.0 * ik * width)) / (2.0 * ik)
        norm_sq = np.sum(parts + 2.0 * a * b * width, axis=0)
        norm_sq += 1j * (1.0 + u[-1] * u[-1]) / (2.0 * ks)  # u(0) = 1 before scaling
        scale = 1.0 / np.sqrt(norm_sq)
    finite = np.isfinite(norm_sq) & np.isfinite(scale)
    if not finite.all():
        raise GamowResidualError(
            f"normalization of the state at k = {complex(ks[~finite][0]):.6g} is not finite"
        )
    a, b = a * scale, b * scale
    return [
        ResonantState(k, profile, complex(scale[i]), _PiecewiseWave(profile, kappa[:, i], a[:, i], b[:, i]))
        for i, k in enumerate(ks.tolist())
    ]


def gamow_state(profile: PotentialProfile, k_n: complex) -> ResonantState:
    """One pole's Gamow state (``_gamow_states``); unexported, kept for the tracer and tests until ROADMAP item 11."""
    return _gamow_states(profile, [k_n])[0]


def find_poles(profile: PotentialProfile, e_max_ev: float) -> list[ResonantState]:
    """Poles with Re k_n <= k(e_max_ev), sorted by eps_n (the search is in the module docstring).

    That is the search rectangle's rule, not eps_n <= e_max_ev: on ``configs/symmetric.cfg`` at 1.0 eV
    the broad pole eps = 0.99468 eV, Re k = 0.132723 > k(1.0 eV) = 0.132610, is left out.

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
    k_max = profile.constants.wavevector(e_max_ev)
    # pad the rectangle so its corners cannot land exactly on a pole
    k_hi = k_max * (1.0 + 3e-9)
    k_lo = 0.5 * profile.constants.wavevector(SCAN_FLOOR_EV)
    top = (k_hi - k_lo) / SAMPLES_PER_EDGE
    deep = ((k_lo, k_hi), (-k_hi, top))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # refused just below
        [samples] = _edge_samples(profile, [deep])
    if not np.all(np.isfinite(samples[1])):
        raise ValueError(f"m22 overflows on the search contour at the ceiling {e_max_ev:g} eV")
    steps = _contour_steps(profile, samples)
    count = _zero_count(steps[1])
    rects, first = [deep], [steps]
    if count > _STRIP_POLES:
        floor = max(-_STRIP_DEPTH, -k_hi)
        cuts = np.linspace(k_lo, k_hi, -(-count // _STRIP_POLES) + 1).tolist()  # ceil(count / 8) strips
        rects = [(strip, (floor, top)) for strip in zip(cuts[:-1], cuts[1:])]
        first = [_contour_steps(profile, ring) for ring in _edge_samples(profile, rects)]
        if sum(_zero_count(dlog) for _, dlog in first) < count and floor > -k_hi:  # the rest lies below the band
            rects.append(((k_lo, k_hi), (-k_hi, floor)))
            [ring] = _edge_samples(profile, rects[-1:])
            first.append(_contour_steps(profile, ring))
    ks = _recover_poles(profile, rects, first)
    if len(ks) != count:
        raise WindingMismatchError(f"winding count {count} != {len(ks)} converged poles")
    states = _gamow_states(profile, [k for k in ks if k.real <= k_max])
    states.sort(key=lambda s: s.eps_ev)
    return states


def _recover_poles(profile: PotentialProfile, rects, steps) -> list[complex]:
    """Every zero of m22 inside each rectangle, each certified by the count on its own contour.

    ``steps`` are ``_contour_steps`` around each rectangle with no pole
    divided out, from which each rectangle's count is taken once, so that
    the deep contour's count is its first pass as well.  The passes are in
    the module docstring.  The rectangles run them in lockstep: every pass
    refines the seeds of all rectangles with poles still missing in one
    ``_newton`` call, which divides out every pole found so far.  Each
    rectangle keeps the new poles inside it, whichever seed reached them,
    and checks them against its own count; a count below zero takes no
    seed, so its pass adds nothing.  Returns the poles of all rectangles,
    one rectangle after another.
    """
    steps = list(steps)
    counts = [_zero_count(dlog) for _, dlog in steps]
    missing = list(counts)
    found: list[list[complex]] = [[] for _ in rects]
    while pending := [i for i, m in enumerate(missing) if m]:
        seeds = [_moment_roots(rects[i], *steps[i], missing[i]) for i in pending]
        ks, converged = _newton(profile, np.concatenate(seeds), known=[k for f in found for k in f])
        ks = ks[converged].tolist()
        for i in pending:
            (re_lo, re_hi), (im_lo, im_hi) = rects[i]
            new: list[complex] = []
            for k in ks:
                if re_lo <= k.real <= re_hi and im_lo <= k.imag < min(im_hi, 0.0) and _is_new(k, found[i] + new):
                    new.append(k)
            found[i] += new
            missing[i] -= len(new)
            if not new or missing[i] < 0:
                raise WindingMismatchError(f"winding count {counts[i]} != {len(found[i])} converged poles")
        for i in pending:
            if missing[i]:
                steps[i] = _contour_steps(profile, steps[i][0], found[i])
                missing[i] = _zero_count(steps[i][1])
    return [k for poles in found for k in poles]


def _moment_roots(rect, samples, dlog: np.ndarray, missing: int) -> np.ndarray:
    """One seed per missing zero: the roots of the polynomial whose power sums are the contour moments.

    The moments s_p = (1/2 pi i) contour z^p dlog g, p = 1..missing, are
    taken in the centred, scaled momentum z of the rectangle, by parts:
    s_p = (z_0^p L_end - p contour L z^(p-1) dz) / 2 pi i, with L = log g
    unwrapped along the contour from L = 0 at its start z_0 to
    L_end = 2 pi i missing.  Each edge's integral is composite Simpson on
    its uniform samples, fourth order; the points ``_contour_steps``
    inserted only unwrap L.  The monic polynomial's coefficients follow
    from Newton's identities.
    """
    (re_lo, re_hi), (im_lo, im_hi) = rect
    center = complex(0.5 * (re_lo + re_hi), 0.5 * (im_lo + im_hi))
    scale = 0.5 * max(re_hi - re_lo, im_hi - im_lo)
    k, _, grid = samples
    z = (k[grid] - center) / scale
    log_g = np.concatenate(([0.0], np.cumsum(dlog)))[grid]
    terms = np.diff(z[::SAMPLES_PER_EDGE]) @ _SIMPSON * log_g  # Simpson's dz of each sample, times L
    sums = [None]  # s_p at index p
    for p in range(1, missing + 1):
        sums.append((z[0] ** p * log_g[-1] - p * terms.sum()) / (2j * np.pi))
        terms = terms * z
    coeffs = [1.0]
    for p in range(1, missing + 1):
        coeffs.append(-sum(coeffs[i] * sums[p - i] for i in range(p)) / p)
    return center + scale * np.roots(coeffs)


def _is_new(k: complex, others) -> bool:
    return all(abs(k - other) > max(1e-8, 1e-9 * abs(k)) for other in others)


def one_term_phi(state: ResonantState, energy_ev: float, x) -> complex:
    """Sharp-resonance one-term approximation 2ik u_n(0) u_n(x) / (k^2 - k_n^2).

    Intended for R_n >> 1 and E near eps_n; accuracy improves with R_n.
    """
    k = state.profile.constants.wavevector(energy_ev)
    return 2j * k * state.u0 * state.u(x) / (k * k - state.k * state.k)
