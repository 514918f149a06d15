"""Time evolution of the internal-region wavefunction after shutter opening.

The internal solution is the stationary wave modulated by Moshinsky kernels
plus resonance transients,

    Psi(x,k;t) = phi M(0,k;t) - phi* M(0,-k;t) - i sum_n T_n M(0,k_n;t),

with T_n = 2k u_n(0) u_n(x) / (k^2 - k_n^2) and the sum running over the
fourth-quadrant poles k_n together with their third-quadrant partners
k_{-n} = -k_n*.  The single-resonance form keeps one pole pair; on resonance
it decomposes into the exponential charging term |phi|^2 (1 - e^{-tau/2})^2
plus an algebraically decaying remainder.

Every term is a weighted kernel on a ray y_i = c_i r, so the sum is

    Psi = sum_i w_i M(c_i r),    r = sqrt(hbar t / 2m),

over 2P + 2 rays for P pole pairs: the free term's pair first, y_k
(reflected, w = phi) and y_{-k} (direct, w = -phi*), then each pole
pair's two.  Each ray crosses |y| = ``Y_NEAR`` = 1 and ``Y_FAR`` = 8 once
on an ascending grid.  Below Y_NEAR every ray takes the Taylor series of
M, beyond Y_FAR the asymptotic one (a reflected ray adds exp(y^2)), so at
each r the rays in either band collapse into one series in r whose
coefficients are their weighted moments: one Horner sum per point and
band, whatever the number of rays (``_Rays``).  In the band between, a
reflected ray adds exp(y^2) as well, which leaves every ray there a
smooth direct-branch term; cut at the rays' band edges into pieces no
wider than ``BAND_RATIO`` in r, the rays on each piece sum to one entire
function of r, interpolated from its values at ``BAND_NODES`` Chebyshev
nodes and summed as its Chebyshev series, one real matrix product per
piece.  A reflected ray's exp(y^2) stops where it decays below
exp(-``_EXP_CUT``), at the decay rate Im(c)^2 - Re(c)^2 formed from the
squares of the parts: exactly 0 for y_k, whose |exp(y_k^2)| = 1 holds to
the end of the grid.  ``wofz`` runs only at the nodes, in one call per
evolution, so an added pole pair costs a few multiply-adds per grid point
rather than a Faddeeva evaluation at each of its band points.  The sum
runs in one pass over the whole grid in the calling thread, with the rays
in order of |c|, so Psi does not depend on the order of the poles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .moshinsky import (
    BAND_NODES,
    BAND_RATIO,
    EXP_MINUS_IPI4,
    SERIES_TERMS,
    TAYLOR_TERMS,
    Y_FAR,
    Y_NEAR,
    _horner,
    _moshinsky_m_grid,
    _series_coefficients,
    _series_terms,
    _taylor_coefficients,
)
from .profile import PotentialProfile
from .resonances import ResonantState
from .scattering import stationary_state


class ConvergenceWarning(UserWarning):
    """Pole-sum truncation warning; nothing in the package raises it.

    Kept exported so that code filtering it by name still runs.
    """


@dataclass(frozen=True)
class TransientSolution:
    """Psi(x, k; t) sampled on a time grid at fixed position."""

    energy_ev: float
    x: float
    t_fs: np.ndarray = field(repr=False)
    tau: np.ndarray | None = field(repr=False)
    psi: np.ndarray = field(repr=False)
    phi: complex
    mode: str
    reference: ResonantState | None = field(repr=False)

    @property
    def abs2(self) -> np.ndarray:
        return np.abs(self.psi) ** 2


def _resolve_grid(reference: ResonantState | None, tau, t_fs):
    if (tau is None) == (t_fs is None):
        raise ValueError("provide exactly one of tau or t_fs")
    if tau is not None:
        if reference is None:
            raise ValueError("a reference resonance is required for a tau grid")
        tau = np.asarray(tau, dtype=float)
        t_fs = tau * reference.lifetime_fs
    else:
        t_fs = np.asarray(t_fs, dtype=float)
        tau = t_fs / reference.lifetime_fs if reference is not None else None
    if t_fs.ndim != 1 or t_fs.size == 0:
        raise ValueError("time grid must be a non-empty 1-D array")
    if not np.all(np.isfinite(t_fs)):
        raise ValueError("time grid must be finite")
    if np.any(t_fs <= 0.0) or np.any(np.diff(t_fs) <= 0.0):
        raise ValueError("time grid must be strictly increasing and positive")
    return tau, t_fs


_TAYLOR = np.asarray(_taylor_coefficients(TAYLOR_TERMS))
_SERIES = np.asarray(_series_coefficients(SERIES_TERMS))

_EXP_CUT = 60.0
"""Beyond Y_FAR a reflected ray drops its exp(y^2) once Re(y^2) < -60, below 1e-26 of its weight."""

_NODE_ANGLE = (2 * np.arange(BAND_NODES) + 1) * np.pi / (2 * BAND_NODES)
_NODES = np.cos(_NODE_ANGLE)
"""First-kind Chebyshev nodes x_j = cos(theta_j) on [-1, 1], at which T_k(x_j) = cos(k theta_j);
none is an end point, so none lies on a band edge."""
_TO_SERIES = 2.0 / BAND_NODES * np.cos(np.arange(BAND_NODES)[:, None] * _NODE_ANGLE)
_TO_SERIES[0] /= 2.0
"""Node values to the coefficients a_k of their interpolant sum_k a_k T_k(x) (Trefethen, ATAP, ch. 3)."""
_BASIS_COLUMNS = 2048
"""Band points whose Chebyshev basis (136 B each) is held at once, unless one piece holds more."""

_EDGE_RTOL = 8 * np.finfo(float).eps
"""Band edges closer than this, relative, are one edge: both rays of a pair share |c| up to rounding."""


class _Rays:
    """sum_i w_i M(c_i r) over an ascending grid of r >= 0, every ray on one branch.

    A ray is direct (Re c > 0) or reflected with Re(c^2) <= 0, as every ray
    of the pole sum is; the free term's y_k has Re(c^2) = 0.  Ray i is below
    ``Y_NEAR`` for r < Y_NEAR/|c_i| and beyond ``Y_FAR`` for r >= Y_FAR/|c_i|.
    In both bands M is a series in y = c_i r, so at each r the rays there
    sum to one series in r whose coefficients are the weighted moments of
    their c_i: a Taylor series with moments w c^n, and an asymptotic one
    with moments w c^-(2j+1).
    Rays leave the near band in order of rising |c| and join the far band
    in order of falling |c|, so the moments of every set that occurs are
    the running sums of a table in that order, added and never subtracted.

    A reflected ray adds its w exp(y^2) from its near edge on, so that what
    is left of it in the band between is -w M(-y), on the direct branch; it
    stops once Re(y^2) = -(Im(c)^2 - Re(c)^2) r^2 falls below -``_EXP_CUT``,
    a decay rate formed from the squares of the parts so that y_k, whose
    parts are equal, gets exactly 0 and keeps exp(y^2) to the end of the grid;
    beyond Y_FAR, where M(y) = exp(y^2) - M(-y), the series is odd in y.
    Cut at every ray's band edges and again until no piece spans more than
    ``BAND_RATIO`` in r, the band holds a fixed set of rays on each piece,
    whose direct-branch terms sum to one entire function of r.  It is
    interpolated from its values at ``BAND_NODES`` Chebyshev nodes, all
    taken in one ``_moshinsky_m_grid`` call over the pieces that hold a
    point of the grid ``r`` given here; the values depend on the rays alone.
    ``coef`` holds each piece's Chebyshev coefficients as (real, imaginary) pairs; a piece's
    points, one run of the grid, add its real product with their T_0..T_16 of x = (r - mid)/half.
    """

    def __init__(self, c: np.ndarray, w: np.ndarray, r: np.ndarray):
        order = np.argsort(np.abs(c), kind="stable")
        self.c, self.w = c[order], w[order]
        mag = np.abs(self.c)
        # each edge moves down to the first of the edges it differs from only by rounding
        edges = np.sort(np.concatenate([Y_NEAR / mag, Y_FAR / mag]))
        edges = edges[np.concatenate(([True], edges[1:] > edges[:-1] * (1.0 + _EDGE_RTOL)))]
        self.near_edge = edges[np.searchsorted(edges, Y_NEAR / mag, "right") - 1]
        self.far_edge = edges[np.searchsorted(edges, Y_FAR / mag, "right") - 1]
        self.far_mag = mag[::-1].tolist()
        moments = self.w[:, None] * self.c[:, None] ** np.arange(TAYLOR_TERMS)
        self.near = np.cumsum(moments, axis=0) * _TAYLOR
        moments = self.w[::-1, None] * self.c[::-1, None] ** -(2 * np.arange(SERIES_TERMS) + 1)
        self.far = np.cumsum(moments, axis=0) * _SERIES
        reflected = self.c.real < 0.0
        decay = np.maximum(np.square(self.c.imag) - np.square(self.c.real), 0.0)
        with np.errstate(divide="ignore"):
            exp_end = np.maximum(self.far_edge, np.sqrt(_EXP_CUT / decay))
        self.exp_c, self.exp_w = self.c[reflected].tolist(), self.w[reflected].tolist()
        self.exp_from, self.exp_to = self.near_edge[reflected], exp_end[reflected]

        # pieces [bounds[p], bounds[p + 1]); a piece holds the rays whose band covers it
        cuts = np.ceil(np.log(edges[1:] / edges[:-1]) / math.log(BAND_RATIO)).astype(int)
        step = (edges[1:] / edges[:-1]) ** (1.0 / cuts)
        self.bounds = np.concatenate(
            [e * s ** np.arange(n) for e, s, n in zip(edges[:-1].tolist(), step.tolist(), cuts.tolist())]
            + [edges[-1:]]
        )
        lo, hi = self.bounds[:-1], self.bounds[1:]
        rays = (self.near_edge <= lo[:, None]) & (hi[:, None] <= self.far_edge)
        held = np.searchsorted(r, lo) < np.searchsorted(r, hi)
        pieces = np.flatnonzero(held & rays.any(axis=1))
        self.lo, self.hi = lo[pieces], hi[pieces]
        self.mid, self.half = 0.5 * (self.hi + self.lo), 0.5 * (self.hi - self.lo)
        piece, ray = np.nonzero(rays[pieces])
        sign = np.where(reflected, -1.0, 1.0)[ray, None]
        node_r = self.mid[piece, None] + self.half[piece, None] * _NODES
        values = np.zeros((pieces.size, BAND_NODES), dtype=complex)
        if piece.size:
            m = _moshinsky_m_grid(sign * self.c[ray, None] * node_r)
            firsts = np.flatnonzero(np.diff(piece, prepend=-1))
            values = np.add.reduceat(sign * self.w[ray, None] * m, firsts, axis=0)
        # a_0 and a_1 first, then the rest from what they leave: a_k for k >= 2 is small, and
        # so is its rounding once it no longer cancels the values' linear part (error 2e-15 -> 6e-16)
        linear = values @ _TO_SERIES[:2].T
        coef = (values - linear[:, :1] - linear[:, 1:] * _NODES) @ _TO_SERIES.T
        coef[:, :2] += linear
        self.coef = coef.view(float).reshape(pieces.size, BAND_NODES, 2)

    def add_to(self, out: np.ndarray, r: np.ndarray) -> None:
        """out += sum_i w_i M(c_i r) over the grid r the rays were made for."""
        # ray i is near on [0, lo[i]) and far on [hi[i], r.size); both fall with i
        lo = np.searchsorted(r, self.near_edge).tolist()
        hi = np.searchsorted(r, self.far_edge).tolist()
        # points [lo[m + 1], lo[m]) are near for rays 0..m
        for m, (a, b) in enumerate(zip(lo[1:] + [0], lo)):
            if a < b:
                out[a:b] += _horner(self.near[m].tolist(), r[a:b].astype(complex))
        # a reflected ray adds its exp(y^2) from its near edge to past Y_FAR
        start, stop = np.searchsorted(r, self.exp_from).tolist(), np.searchsorted(r, self.exp_to).tolist()
        for c, w, a, b in zip(self.exp_c, self.exp_w, start, stop):
            if a < b:
                y = c * r[a:b]
                y *= y
                np.exp(y, out=y)
                np.multiply(w, y, out=y)  # w * y; `y *= w` rounds differently at some points
                out[a:b] += y
        # in order of falling |c|, points [hi[m], hi[m + 1]) are far for rays 0..m
        far = hi[::-1]
        for m, (a, b) in enumerate(zip(far, far[1:] + [r.size])):
            if a < b:
                n = _series_terms(self.far_mag[m] * r[a])
                inv = 1.0 / r[a:b]
                out[a:b] += inv * _horner(self.far[m, :n].tolist(), (inv * inv).astype(complex))
        # the band: each piece's run of points takes one product of its Chebyshev basis and series
        start, stop = np.searchsorted(r, self.lo), np.searchsorted(r, self.hi)
        size = stop - start
        col = np.concatenate(([0], np.cumsum(size)))  # the basis columns of piece p are col[p]:col[p + 1]
        points = np.arange(col[-1]) + np.repeat(start - col[:-1], size)  # the grid index of each column
        x = (r[points] - np.repeat(self.mid, size)) / np.repeat(self.half, size)
        pairs, top = out.view(float).reshape(-1, 2), 0
        for coef, f, e, a in zip(self.coef, col[:-1].tolist(), col[1:].tolist(), start.tolist()):
            if e > top:  # T_k(x) on whole pieces from here, by T_k = 2x T_(k-1) - T_(k-2)
                base, top = f, max(e, col[np.searchsorted(col, f + _BASIS_COLUMNS, "right") - 1])
                basis = np.empty((BAND_NODES, top - base))
                basis[0], basis[1] = 1.0, x[base:top]
                twice = basis[1] + basis[1]
                for k in range(2, BAND_NODES):
                    np.multiply(twice, basis[k - 1], out=basis[k])
                    basis[k] -= basis[k - 2]
            pairs[a : a + e - f] += basis[:, f - base : e - base].T @ coef


def _evolve(profile, poles, energy_ev, x, tau, t_fs, mode, reference):
    if not 0.0 <= x <= profile.total_length:
        raise ValueError(f"position {x} outside [0, {profile.total_length}] A")
    tau, t_fs = _resolve_grid(reference, tau, t_fs)
    constants = profile.constants
    state = stationary_state(profile, energy_ev)
    k, phi = state.k, state.phi(x)
    # the free term phi M(y_k) - phi* M(y_{-k}): a reflected ray and a direct one
    c_free = EXP_MINUS_IPI4 * k
    c, w = [-c_free, c_free], [phi, -phi.conjugate()]
    for s in poles:
        # -i [T_n M(y_{k_n}) + T_{-n} M(y_{-k_n*})], with T_{-n} = conj(T_n)
        # for real k because u_{-n} = u_n* and k_{-n}^2 = conj(k_n^2)
        t_n = 2.0 * k * s.u0 * s.u(x) / (k * k - s.k * s.k)
        c += [-EXP_MINUS_IPI4 * s.k, EXP_MINUS_IPI4 * s.k.conjugate()]
        w += [-1j * t_n, -1j * t_n.conjugate()]
    c, w = np.asarray(c, dtype=complex), np.asarray(w, dtype=complex)
    root_t = np.sqrt(constants.hbar2_over_2m * t_fs / constants.hbar)
    psi = np.zeros(t_fs.size, dtype=complex)
    _Rays(c, w, root_t).add_to(psi, root_t)
    return TransientSolution(float(energy_ev), float(x), t_fs, tau, psi, phi, mode, reference)


def evolve_single_resonance(
    profile: PotentialProfile,
    state: ResonantState,
    energy_ev: float,
    x: float,
    *,
    tau=None,
    t_fs=None,
) -> TransientSolution:
    """One-level transient solution for incidence near resonance n.

    The incidence energy must lie within a few widths of eps_n for the
    single-resonance form to make sense.
    """
    if abs(energy_ev - state.eps_ev) > 10.0 * state.gamma_ev:
        raise ValueError(
            f"E = {energy_ev} eV is {abs(energy_ev - state.eps_ev) / state.gamma_ev:.1f} "
            "widths away from the resonance; use the full expansion"
        )
    return _evolve(profile, [state], energy_ev, x, tau, t_fs, "single_resonance", state)


def evolve_full(
    profile: PotentialProfile,
    poles: Sequence[ResonantState],
    energy_ev: float,
    x: float,
    *,
    tau=None,
    t_fs=None,
    reference: ResonantState | None = None,
) -> TransientSolution:
    """Truncated pole-sum solution over the given poles, in any order.

    The sum runs over the given poles alone and carries no error estimate:
    its truncation error falls only as t^(-1/2) at late times.  A tau grid
    is in lifetimes of ``reference``, by default the pole nearest in
    energy to the incidence.
    """
    if not poles:
        raise ValueError("pole list must be non-empty")
    if reference is None and tau is not None:
        reference = min(poles, key=lambda s: abs(s.eps_ev - energy_ev))
    return _evolve(profile, poles, energy_ev, x, tau, t_fs, "full", reference)


@dataclass(frozen=True)
class BuildupDecomposition:
    """|Psi|^2 split into the exponential charging term and the remainder."""

    tau: np.ndarray
    exponential_part: np.ndarray
    remainder: np.ndarray
    phi_abs2: float

    @property
    def abs2(self) -> np.ndarray:
        return self.exponential_part + self.remainder


def buildup_decomposition(
    solution: TransientSolution, state: ResonantState
) -> BuildupDecomposition:
    """Remainder Delta(tau) = |Psi|^2 - |phi|^2 (1 - e^{-tau/2})^2.

    Requires an on-resonance single-resonance solution; the identity
    exponential_part + remainder == |Psi|^2 holds by construction.
    """
    if solution.mode != "single_resonance":
        raise ValueError("decomposition is defined for single-resonance solutions")
    if solution.reference is None or abs(solution.reference.k - state.k) > 1e-12 * abs(state.k):
        raise ValueError("solution was not produced with this resonance")
    if abs(solution.energy_ev - state.eps_ev) > 1e-9 * state.eps_ev:
        raise ValueError(
            f"solution energy {solution.energy_ev} is not on resonance ({state.eps_ev})"
        )
    tau = solution.tau
    phi_abs2 = abs(solution.phi) ** 2
    exponential = phi_abs2 * (1.0 - np.exp(-0.5 * tau)) ** 2
    # small difference of O(|phi|^2) quantities; the accuracy floor is set by
    # the ~1e-14 relative error of the kernel evaluations, not this subtraction
    remainder = solution.abs2 - exponential
    return BuildupDecomposition(tau, exponential, remainder, phi_abs2)
