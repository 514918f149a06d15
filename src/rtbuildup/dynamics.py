"""Time evolution of the internal-region wavefunction after shutter opening.

The internal solution is the stationary wave modulated by Moshinsky kernels
plus resonance transients,

    Psi(x,k;t) = phi M(0,k;t) - phi* M(0,-k;t) - i sum_n T_n M(0,k_n;t),

with T_n = 2k u_n(0) u_n(x) / (k^2 - k_n^2) and the sum running over the
fourth-quadrant poles k_n together with their third-quadrant partners
k_{-n} = -k_n*; i T_n is ``one_term_phi``.  The single-resonance form keeps
one pole pair.  Momentum arguments follow

    y_q = -exp(-i pi/4) sqrt(m / 2 hbar) (hbar q / m) sqrt(t)

with q one of +-k, +-k_n, +-k_n*; on resonance they depend only on the
sharpness ratio R_n and the time in lifetime units tau:
y_{+-q} = -+exp(-i pi/4) sqrt((R_n + s) tau), s = 0, -i/2, +i/2 for q = k, k_n, k_n*.

Every term is a weighted kernel on a ray y_i = c_i r, so the sum is

    Psi = sum_i w_i M(c_i r),    r = sqrt(hbar t / 2m),

over P + 1 pairs (q, a), each the term a M(y_q) - a* M(y_{-q*}): the free
pair (k, phi) first, then pole n's (k_n, -i T_n).  A pair's rays are y_q,
reflected (c = -e^{-i pi/4} q, w = a), and y_{-q*}, direct (c = e^{-i pi/4}
q*, w = -a*).  With |c_min| and |c_max| the smallest and largest |c|,
every ray is below |y| = ``Y_NEAR`` = 1 for r < Y_NEAR/|c_max| and takes
the Taylor series (Abramowitz & Stegun 7.1.8)

    M(y) = (1/2) sum_n (-y)^n / Gamma(n/2 + 1),

which is entire, to ``TAYLOR_TERMS`` = 38 terms: 4.7e-16 worst relative
error against a 40-digit erfc at |y| = 1.  Every ray is at |y| >=
``Y_FAR`` = 8 from r = Y_FAR/|c_min| on and takes the large-argument
series (A&S 7.1.23)

    M(y) ~ (2 sqrt(pi) y)^-1 sum_j (-1)^j (2j-1)!! / (2y^2)^j,   Re(y) > 0,

stopped before the first term below 1e-17 of the leading one: 17 terms at
|y| = 8 and 4e-16.  It is odd in y, so a reflected ray, M(y) = exp(y^2) -
M(-y), takes it at y and adds exp(y^2).  Both series are linear in their
coefficients, so in either tail the rays collapse into one row: the Taylor
row in |c_max| r, whose moments are sum_i w_i (c_i/|c_max|)^n, and the
asymptotic row in 1/(|c_min| r), whose moments are
sum_i w_i (|c_min|/c_i)^(2j+1).  No ratio exceeds 1 in modulus, so no
moment overflows, and each point takes one Horner sum whatever the number
of rays.

The band between is cut into pieces of equal ratio no wider than
``BAND_RATIO`` = 1.5 in r, each holding every ray.  A reflected ray adds
exp(y^2) on the grid from the piece bound at or below its own Y_NEAR/|c|,
which leaves it a smooth direct-branch term -M(-y) there; on the pieces
below that bound its |y| < 1, and the nodes take its exp(y^2) too.  The
rays on each piece thus sum to one smooth function of r, interpolated from
its values at ``BAND_NODES`` = 17 Chebyshev nodes and summed as its
Chebyshev series, one real matrix product per piece.  One ray there is
within 8.5e-15 of a 30-digit erfc, and the kernel at the nodes within
1.2e-15.  The Faddeeva kernel runs only at the nodes of the pieces that
hold a grid point, in one ``_moshinsky_m_grid`` call per evolution, every
argument on the direct branch, so an added pole pair costs a few
multiply-adds per grid point rather than a Faddeeva evaluation at each of
its band points.

A reflected ray's exp(y^2) stops where it decays below exp(-``_EXP_CUT``),
at the decay rate -Re(c^2) = (Im c - Re c)(Im c + Re c): exactly 0 for y_k,
whose parts are equal.  That exp(y^2) is taken in place by
``_exp_square_in_place``, the kernel's own, which forms Re(y^2) the same
way, so |exp(y_k^2)| = 1 to rounding holds to the end of the grid; it takes
numpy's real exp, cos and sin, as accurate as ``np.exp`` at any phase.  The
sum runs in one pass over the whole grid in the calling thread, with the
rays in order of |c|, so Psi does not depend on the order of the poles.  A
reflected ray's exp(y^2) depends on neither x nor E, only on its c and the
grid: an evolve on the grid of the one before keeps its tables, up to
``_KEPT_ARRAYS`` complex grid arrays of them, and the next evolve on that
grid reuses every table whose ray recurs, which leaves Psi bit for bit the
same (see ``evolve_full``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .moshinsky import (
    Y_FAR,
    _exp_square_in_place,
    _horner,
    _moshinsky_m_grid,
    _series_coefficients,
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


EXP_MINUS_IPI4 = complex(0.7071067811865475, -0.7071067811865475)
"""exp(-i pi/4) with equal parts, so that y_k for real k has parts of equal magnitude and Re(y_k^2),
formed as (Re y - Im y)(Re y + Im y), is exactly 0; ``cmath.exp`` gives parts a bit apart."""

Y_NEAR = 1.0
"""|y| below which the pole sum takes M(y) from its Taylor series."""

TAYLOR_TERMS = 38
"""Taylor terms the pole sum takes below ``Y_NEAR``.

At |y| = 1, 38 terms reach 4.7e-16 against mpmath, 36 reach 5.9e-16 and 34
reach 5.3e-15.  The near tail's one row is summed in |c_max| r, which
reaches 1 at the tail's end, so every point takes all 38.
"""

BAND_NODES = 17
"""First-kind Chebyshev nodes per piece on which the pole sum interpolates its rays between
``Y_NEAR`` and ``Y_FAR``."""

BAND_RATIO = 1.5
"""Largest r_hi / r_lo of one interpolation piece.

With 17 nodes a piece anywhere from |y| = 1 to 8 interpolates one
direct-branch ray, in any direction the pole sum makes, to within 1e-14.
A reflected ray's own M(y) would need more than 32 nodes on sharp poles,
whose exp(y^2) turns by up to ~35 radians across a piece, so the pole sum
adds that factor apart.
"""


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

_TAYLOR = np.asarray([0.5 * (-1.0) ** j / math.gamma(0.5 * j + 1.0) for j in range(TAYLOR_TERMS)])
"""b_0..b_37 of M(y) = sum_n b_n y^n (A&S 7.1.8): from w(z) = sum_n (iz)^n / Gamma(n/2 + 1),
b_n = (-1)^n / (2 Gamma(n/2 + 1))."""
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
    of the pole sum is; the free term's y_k has Re(c^2) = 0.  With ``slow``
    and ``fast`` the smallest and largest |c|, every ray is near for r <
    Y_NEAR/fast and far for r >= Y_FAR/slow, where ``near`` and ``far`` are
    the two tails' series rows.  ``bounds`` cut the band between into pieces
    [bounds[p], bounds[p + 1]), and each piece that holds a point of the
    grid ``r`` given here, the grid ``add_to`` sums over, holds every ray.
    A reflected ray adds its exp(y^2) on the grid from ``exp_from``, the
    bound at or below its own Y_NEAR/|c|, to ``exp_to``, and at the nodes
    of the pieces below ``exp_from``.  ``coef`` holds each piece's
    Chebyshev coefficients as (real, imaginary) pairs; a piece's points,
    one run of the grid, add its real product with their T_0..T_16 of
    x = (r - mid)/half.
    """

    def __init__(self, c: np.ndarray, w: np.ndarray, r: np.ndarray):
        self.r = r
        order = np.argsort(np.abs(c), kind="stable")
        self.c, self.w = c[order], w[order]
        mag = np.abs(self.c)
        self.slow, self.fast = float(mag[0]), float(mag[-1])
        # no ratio exceeds 1 in modulus, so no term of either row overflows; those of far-apart rays may underflow
        with np.errstate(under="ignore"):
            ratio = self.c[:, None] / self.fast
            self.near = np.sum(self.w[:, None] * ratio ** np.arange(TAYLOR_TERMS), axis=0) * _TAYLOR
            ratio = self.slow / self.c[:, None]
            self.far = np.sum(self.w[:, None] * ratio ** (2 * np.arange(SERIES_TERMS) + 1), axis=0) * _SERIES
        start, end = Y_NEAR / self.fast, Y_FAR / self.slow
        cuts = math.ceil(math.log(end / start) / math.log(BAND_RATIO))
        self.bounds = np.append(start * ((end / start) ** (1.0 / cuts)) ** np.arange(cuts), end)
        reflected = self.c.real < 0.0
        decay = np.maximum((self.c.imag - self.c.real) * (self.c.imag + self.c.real), 0.0)
        with np.errstate(divide="ignore"):
            exp_end = np.maximum(Y_FAR / mag, np.sqrt(_EXP_CUT / decay))
        below = np.searchsorted(self.bounds, Y_NEAR / mag, "right") - 1
        self.exp_c, self.exp_w = self.c[reflected].tolist(), self.w[reflected].tolist()
        self.exp_from, self.exp_to = self.bounds[below[reflected]], exp_end[reflected]

        lo, hi = self.bounds[:-1], self.bounds[1:]
        pieces = np.flatnonzero(np.searchsorted(r, lo) < np.searchsorted(r, hi))
        self.lo, self.hi = lo[pieces], hi[pieces]
        self.mid, self.half = 0.5 * (self.hi + self.lo), 0.5 * (self.hi - self.lo)
        values = np.zeros((pieces.size, BAND_NODES), dtype=complex)
        if pieces.size:
            y = self.c[:, None, None] * (self.mid[:, None] + self.half[:, None] * _NODES)  # ray, piece, node
            sign = np.where(reflected, -1.0, 1.0)[:, None, None]
            terms = sign * self.w[:, None, None] * _moshinsky_m_grid(sign * y)
            # on a piece below its bound a reflected ray has |y| < 1, and its nodes take exp(y^2) too
            inside = reflected[:, None] & (pieces < below[:, None])
            exp_y2 = y[inside]
            _exp_square_in_place(exp_y2)
            terms[inside] += self.w[np.nonzero(inside)[0], None] * exp_y2
            values = terms.sum(axis=0)
        # a_0 and a_1 first, then the rest from what they leave: a_k for k >= 2 is small, and
        # so is its rounding once it no longer cancels the values' linear part (error 2e-15 -> 6e-16)
        linear = values @ _TO_SERIES[:2].T
        coef = (values - linear[:, :1] - linear[:, 1:] * _NODES) @ _TO_SERIES.T
        coef[:, :2] += linear
        self.coef = coef.view(float).reshape(pieces.size, BAND_NODES, 2)

    def add_to(self, out: np.ndarray) -> None:
        """out += sum_i w_i M(c_i r) over the grid r the rays were made for."""
        r = self.r
        near, far = np.searchsorted(r, self.bounds[[0, -1]]).tolist()
        out[:near] += _horner(self.near.tolist(), (self.fast * r[:near]).astype(complex))
        # a reflected ray adds its exp(y^2) from its bound to past Y_FAR
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
        if far < r.size:
            inv = 1.0 / (self.slow * r[far:])
            terms = _series_terms(self.slow * r[far])
            out[far:] += inv * _horner(self.far[:terms].tolist(), (inv * inv).astype(complex))
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
    poles = list(poles)
    if not poles:
        raise ValueError("pole list must be non-empty")
    return _evolve(profile, poles, energy_ev, x, t_fs)
