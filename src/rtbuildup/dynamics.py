"""Time evolution of the internal-region wavefunction after shutter opening.

The internal solution is the stationary wave modulated by Moshinsky kernels
plus resonance transients,

    Psi(x,k;t) = phi M(0,k;t) - phi* M(0,-k;t) - i sum_n T_n M(0,k_n;t),

with T_n = 2k u_n(0) u_n(x) / (k^2 - k_n^2) and the sum running over the
fourth-quadrant poles k_n together with their third-quadrant partners
k_{-n} = -k_n*; i T_n is ``one_term_phi``.  The single-resonance form keeps
one pole pair.

Every term is a weighted kernel on a ray y_i = c_i r, so the sum is

    Psi = sum_i w_i M(c_i r),    r = sqrt(hbar t / 2m),

over P + 1 pairs (q, a), each the term a M(y_q) - a* M(y_{-q*}): the free
pair (k, phi) first, then pole n's (k_n, -i T_n).  A pair's rays are y_q,
reflected (c = -e^{-i pi/4} q, w = a), and y_{-q*}, direct (c = e^{-i pi/4}
q*, w = -a*).  Each ray crosses |y| = ``Y_NEAR`` = 1 and ``Y_FAR`` = 8 once
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
exp(-``_EXP_CUT``), at the decay rate -Re(c^2) = (Im c - Re c)(Im c + Re c):
exactly 0 for y_k, whose parts are equal.  That exp(y^2) is taken in place
by ``_exp_square_in_place``, the kernel's own, which forms Re(y^2) the same
way, so |exp(y_k^2)| = 1 to rounding holds to the end of the grid; it takes
numpy's real exp, cos and sin, which hold the phase at any |y|^2.  The
Faddeeva kernel runs only at the nodes, in one ``_moshinsky_m_grid`` call
per evolution, every argument on the direct branch, so an added pole pair
costs a few multiply-adds per grid point rather than a Faddeeva evaluation
at each of its band points.  The sum runs in one pass over the whole grid
in the calling thread, with the rays in order of |c|, so Psi does not depend on
the order of the poles.  A reflected ray's exp(y^2) depends on neither x
nor E, only on its c and the grid: an evolve on the grid of the one before
keeps its tables, up to ``_KEPT_ARRAYS`` complex grid arrays of them, and
the next evolve on that grid reuses every table whose ray recurs, which
leaves Psi bit for bit the same (see ``evolve_full``).
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
    _exp_square_in_place,
    _horner,
    _moshinsky_m_grid,
    _series_coefficients,
    _series_terms,
    _taylor_coefficients,
)
from .profile import HBAR_EV_FS, PotentialProfile
from .resonances import ResonantState, one_term_phi
from .scattering import stationary_state


class ConvergenceWarning(UserWarning):
    """Pole-sum truncation warning; nothing in the package raises it.

    Kept exported so that code filtering it by name still runs.
    """


@dataclass(frozen=True)
class TransientSolution:
    """Psi(x, k; t) sampled on a time grid ``t_fs`` in fs at fixed position."""

    energy_ev: float
    x: float
    t_fs: np.ndarray = field(repr=False)
    psi: np.ndarray = field(repr=False)
    phi: complex

    @property
    def abs2(self) -> np.ndarray:
        return np.abs(self.psi) ** 2


def _resolve_grid(t_fs) -> np.ndarray:
    t_fs = np.asarray(t_fs, dtype=float)
    if t_fs.ndim != 1 or t_fs.size == 0:
        raise ValueError("time grid must be a non-empty 1-D array")
    if not np.all(np.isfinite(t_fs)):
        raise ValueError("time grid must be finite")
    if np.any(t_fs <= 0.0) or np.any(np.diff(t_fs) <= 0.0):
        raise ValueError("time grid must be strictly increasing and positive")
    return t_fs


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

_KEPT_ARRAYS = 7
"""The exp(y^2) tables kept between evolves hold at most this many complex grid arrays in all: the
12 arrays an evolve may peak at, in ``test_pole_sum_memory_stays_within_twelve_grid_arrays``, less
the 4.6 it peaks at on its own."""

_kept_exp: tuple[np.ndarray, dict] = (np.empty(0), {})
"""(r, {(c, a, b): exp((c r[a:b])^2)}) of the last evolve, read-only tables; read and replaced
as one tuple, so that concurrent evolves never pair one grid with another grid's tables."""


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
    the running sums of a table in that order, added and never subtracted;
    a far row whose sums leave the double range is summed anew in units of
    its smallest |c| (``far_scale``), which keeps every term within |w|.

    A reflected ray adds its w exp(y^2) from its near edge on, so that what
    is left of it in the band between is -w M(-y), on the direct branch; it
    stops once Re(y^2) = -(Im c - Re c)(Im c + Re c) r^2 falls below
    -``_EXP_CUT``, a decay rate in the form ``_exp_square_in_place`` takes
    Re(y^2) in, so that y_k, whose parts are equal, gets exactly 0 and keeps
    |exp(y^2)| = 1 to the end of the grid;
    beyond Y_FAR, where M(y) = exp(y^2) - M(-y), the series is odd in y.
    Cut at every ray's band edges and again until no piece spans more than
    ``BAND_RATIO`` in r, the band holds a fixed set of rays on each piece,
    whose direct-branch terms sum to one entire function of r.  It is
    interpolated from its values at ``BAND_NODES`` Chebyshev nodes, all
    taken in one ``_moshinsky_m_grid`` call over the pieces that hold a
    point of the grid ``r`` given here, the grid ``add_to`` sums over; the
    values depend on the rays alone.
    ``coef`` holds each piece's Chebyshev coefficients as (real, imaginary) pairs; a piece's
    points, one run of the grid, add its real product with their T_0..T_16 of x = (r - mid)/half.
    """

    def __init__(self, c: np.ndarray, w: np.ndarray, r: np.ndarray):
        self.r = r
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
        c_far, w_far = self.c[::-1, None], self.w[::-1, None]
        odd = 2 * np.arange(SERIES_TERMS) + 1
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            self.far = np.cumsum(w_far * c_far**-odd, axis=0) * _SERIES
        # a row past the double range (|c| below ~4e-10: ~1e-17 eV; read only if the grid reaches it)
        # is summed in 1/(s r), s its smallest |c|, which keeps each w (c/s)^-(2j+1) within |w|
        self.far_scale = np.ones(self.c.size)
        for m in np.flatnonzero(~np.isfinite(self.far).all(axis=1)).tolist():
            s = self.far_scale[m] = self.far_mag[m]
            with np.errstate(under="ignore"):
                self.far[m] = np.sum(w_far[: m + 1] * (s / c_far[: m + 1]) ** odd, axis=0) * _SERIES
        reflected = self.c.real < 0.0
        decay = np.maximum((self.c.imag - self.c.real) * (self.c.imag + self.c.real), 0.0)
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

    def add_to(self, out: np.ndarray) -> None:
        """out += sum_i w_i M(c_i r) over the grid r the rays were made for."""
        r = self.r
        # ray i is near on [0, lo[i]) and far on [hi[i], r.size); both fall with i
        lo = np.searchsorted(r, self.near_edge).tolist()
        hi = np.searchsorted(r, self.far_edge).tolist()
        # points [lo[m + 1], lo[m]) are near for rays 0..m
        for m, (a, b) in enumerate(zip(lo[1:] + [0], lo)):
            if a < b:
                out[a:b] += _horner(self.near[m].tolist(), r[a:b].astype(complex))
        # a reflected ray adds its exp(y^2) from its near edge to past Y_FAR
        start, stop = np.searchsorted(r, self.exp_from).tolist(), np.searchsorted(r, self.exp_to).tolist()
        reflected = [((c, a, b), w) for c, w, a, b in zip(self.exp_c, self.exp_w, start, stop) if a < b]
        # its exp(y^2) depends on (c, a, b) and the grid alone: keep the tables of an evolve on
        # the grid of the one before, within the cap, and drop the rest before making any
        global _kept_exp
        grid, kept = _kept_exp
        repeat = np.array_equal(grid, r)
        kept = {key: kept[key] for key, _ in reflected if key in kept} if repeat else {}
        store = repeat and sum(b - a for (_, a, b), _ in reflected) <= _KEPT_ARRAYS * r.size
        _kept_exp = (grid if repeat else r.copy(), dict(kept) if store else {})
        for key, w in reflected:
            c, a, b = key
            table = kept.get(key)
            if table is None:
                table = c * r[a:b]
                _exp_square_in_place(table)
                if store:
                    table.flags.writeable = False
                    kept[key] = table
            # w * table, in place unless kept; `table * w` rounds differently at some points
            out[a:b] += np.multiply(w, table, out=table if table.flags.writeable else None)
        if store:
            _kept_exp = (grid, kept)
        # in order of falling |c|, points [hi[m], hi[m + 1]) are far for rays 0..m
        far = hi[::-1]
        for m, (a, b) in enumerate(zip(far, far[1:] + [r.size])):
            if a < b:
                n = _series_terms(self.far_mag[m] * r[a])
                inv = 1.0 / (self.far_scale[m] * r[a:b])
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


def _evolve(profile, poles, energy_ev, x, t_fs):
    if any(s.profile is not profile and s.profile != profile for s in poles):
        raise ValueError("every pole must be a pole of the profile evolved")
    t_fs = _resolve_grid(t_fs)
    state = stationary_state(profile, energy_ev)
    phi = state.phi(x)
    # pair (q, a) is a M(y_q) - a* M(y_{-q*}): the free term's is (k, phi), pole n's (k_n, -i T_n), whose partner
    # has -i T_{-n} = -(-i T_n)* as T_{-n} = conj(T_n) for real k because u_{-n} = u_n* and k_{-n}^2 = conj(k_n^2)
    pairs = [(state.k, phi)] + [(s.k, -one_term_phi(s, energy_ev, x)) for s in poles]
    c = [ray for q, _ in pairs for ray in (-EXP_MINUS_IPI4 * q, EXP_MINUS_IPI4 * q.conjugate())]
    w = [weight for _, a in pairs for weight in (a, -a.conjugate())]
    c, w = np.asarray(c, dtype=complex), np.asarray(w, dtype=complex)
    root_t = np.sqrt(profile.hbar2_over_2m * t_fs / HBAR_EV_FS)
    psi = np.zeros(t_fs.size, dtype=complex)
    _Rays(c, w, root_t).add_to(psi)
    return TransientSolution(float(energy_ev), float(x), t_fs, psi, phi)


def evolve_single_resonance(
    profile: PotentialProfile,
    state: ResonantState,
    energy_ev: float,
    x: float,
    *,
    t_fs,
) -> TransientSolution:
    """One-level transient solution for incidence near resonance n.

    The incidence energy must lie within a few widths of eps_n for the
    single-resonance form to make sense, and ``state`` must be a pole of
    ``profile``.
    """
    if abs(energy_ev - state.eps_ev) > 10.0 * state.gamma_ev:
        raise ValueError(
            f"E = {energy_ev} eV is {abs(energy_ev - state.eps_ev) / state.gamma_ev:.3g} "
            "widths away from the resonance; use the full expansion"
        )
    return _evolve(profile, [state], energy_ev, x, t_fs)


def evolve_full(
    profile: PotentialProfile,
    poles: Sequence[ResonantState],
    energy_ev: float,
    x: float,
    *,
    t_fs,
) -> TransientSolution:
    """Truncated pole-sum solution over the given poles of ``profile``, in any order.

    The sum runs over the given poles alone and carries no error estimate:
    its truncation error falls only as t^(-1/2) at late times.  A pole of
    another structure, one whose profile is not equal to ``profile``,
    raises ``ValueError``.

    Every evolve keeps a copy of its grid r = sqrt(hbar t / 2m).  One whose
    grid equals the last evolve's, point for point, also keeps its
    reflected rays' exp(y^2) tables, read-only, unless together they would
    exceed ``_KEPT_ARRAYS`` = 7 complex grid arrays (about 5.4 for 8 pole
    pairs, none from 18 on); it first drops the kept tables it does not
    reuse.  So a sweep over (E, x) on one structure and one grid computes
    each pole's exp(y^2) once, and a one-off evolve, such as one CLI run,
    keeps only the grid.  Kept or not, Psi is bit for bit the same.
    """
    if not poles:
        raise ValueError("pole list must be non-empty")
    return _evolve(profile, poles, energy_ev, x, t_fs)
